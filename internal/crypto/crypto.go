// Package crypto provides the cryptographic substrate of the FAUST
// reproduction: collision-resistant hashing, digital signatures with
// domain separation, and keyrings holding the public keys of all clients.
//
// The paper (Section 2) assumes a collision-resistant hash function H and
// a digital signature scheme where only client C_i can sign as C_i and
// every party can verify. We instantiate H with SHA-256 and signatures
// with Ed25519 from the Go standard library.
package crypto

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	mathrand "math/rand/v2"
	"sync"

	"faust/internal/obs"
)

// HashSize is the size in bytes of hash values produced by Hash.
const HashSize = sha256.Size

// SignatureSize is the size in bytes of every signature Sign produces.
const SignatureSize = ed25519.SignatureSize

// Domain tags separate the signature kinds of Algorithm 1 so that a
// signature issued for one purpose can never verify for another.
//
// Tags 2 and 4 are retired and must never be reused. Tag 2 marked the
// paper's DATA-signature delta on (timestamp, value hash), which the
// SUBMIT-signature now subsumes (its payload ends with the value hash);
// tag 4 marked the PROOF-signature psi on M[i], which the
// COMMIT-signature subsumes (its payload starts with M[i]). Keeping the
// tags unassigned means no delta or psi ever issued can verify under a
// new meaning.
const (
	DomainSubmit byte = 1 // SUBMIT-signature sigma on (opcode, register, timestamp, value hash)
	DomainCommit byte = 3 // COMMIT-signature phi on M[i] and the hash of (V, M)
	// DomainLSChain is used by the lock-step baseline protocol for
	// signatures over its global hash chain.
	DomainLSChain byte = 5
	// DomainHello signs the TCP handshake challenge: a server nonce, the
	// client id and the shard name (see internal/transport).
	DomainHello byte = 6
)

// scratchPool recycles the concatenation / domain-prefix buffers used by
// Hash, Sign and Verify so the steady-state hot path performs no heap
// allocation beyond the returned digest or signature.
var scratchPool = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

// Signature timing feeds the observability layer: Ed25519 dominates the
// client-side cost of every USTOR operation (Section 6 measures exactly
// this), so per-call histograms make the crypto share of op latency
// visible on /metrics wherever signing or verification happens.
var (
	signNs   = obs.Default().Histogram("faust_ed25519_sign_ns")
	verifyNs = obs.Default().Histogram("faust_ed25519_verify_ns")
)

// Hash returns the SHA-256 digest of the concatenation of the given byte
// slices. The digest is computed with a stack [32]byte sum (sha256.Sum256)
// over a pooled concatenation buffer; the only allocation is the returned
// 32-byte slice.
func Hash(parts ...[]byte) []byte {
	return HashInto(nil, parts...)
}

// HashInto appends the SHA-256 digest of the concatenation of parts to dst
// and returns the extended slice. With a dst of sufficient capacity the
// call is allocation-free. The digest is fully computed before dst is
// written, so dst[:0] may alias one of the parts.
func HashInto(dst []byte, parts ...[]byte) []byte {
	if len(parts) == 1 {
		sum := sha256.Sum256(parts[0])
		return append(dst, sum[:]...)
	}
	bp := scratchPool.Get().(*[]byte)
	buf := (*bp)[:0]
	for _, p := range parts {
		buf = append(buf, p...)
	}
	sum := sha256.Sum256(buf)
	*bp = buf
	scratchPool.Put(bp)
	return append(dst, sum[:]...)
}

// HashOrNil returns nil when x is nil (the paper's bottom value) and
// Hash(x) otherwise. The initial value of every register is bottom, and
// the SUBMIT-signature of a client that has never written covers bottom
// rather than the hash of an empty string; this helper keeps signer and
// verifier consistent.
func HashOrNil(x []byte) []byte {
	if x == nil {
		return nil
	}
	return Hash(x)
}

// HashValue is a convenience alias of Hash for a single slice.
func HashValue(x []byte) []byte { return Hash(x) }

// Signer holds a client's private key and can issue signatures in its
// name. The zero value is unusable; construct via GenerateKeyring or
// NewTestKeyring.
type Signer struct {
	id  int
	key ed25519.PrivateKey
}

// ID returns the client index this signer signs for.
func (s *Signer) ID() int { return s.id }

// Sign produces a signature over the given domain-separated payload. The
// domain-prefixed message is assembled in a pooled scratch buffer, so the
// only allocation is the returned signature.
func (s *Signer) Sign(domain byte, payload []byte) []byte {
	bp := scratchPool.Get().(*[]byte)
	msg := append((*bp)[:0], domain)
	msg = append(msg, payload...)
	start := obs.StartTimer()
	sig := ed25519.Sign(s.key, msg)
	signNs.ObserveSince(start)
	*bp = msg
	scratchPool.Put(bp)
	return sig
}

// Keyring holds the public keys of all n clients and, optionally, the
// private key of one of them. All parties (clients and the server, if it
// authenticates connections) share the same public keyring. A Keyring also caches
// the signature triples it has accepted (see verified.go), so every party
// sharing one keyring verifies each distinct signature once.
type Keyring struct {
	pubs     []ed25519.PublicKey
	verified verifiedCache
}

// N returns the number of clients the keyring covers.
func (k *Keyring) N() int { return len(k.pubs) }

// Verify checks a signature supposedly issued by client i over the given
// domain-separated payload. It returns false for out-of-range client
// indices and malformed signatures rather than panicking: in this protocol
// a bad signature is evidence of misbehavior, not a programming error.
//
// A triple this keyring accepted before is answered from its verified
// cache without a second ed25519.Verify. The cache key (signer index,
// domain, payload and signature hashed together) and the message to
// verify share one pooled buffer, laid out as
// signer(4) ‖ domain ‖ payload ‖ signature with the message in the middle.
//
//faustlint:hotpath
func (k *Keyring) Verify(i int, sig []byte, domain byte, payload []byte) bool {
	return k.verify(i, sig, domain, payload, true)
}

// VerifyUncached checks a signature exactly like Verify but neither
// consults nor fills the verified cache. It is meant for one-shot
// payloads that no party will ever present again, such as a handshake
// answer over a fresh nonce: caching those would only evict the triples
// the protocol checks re-present.
func (k *Keyring) VerifyUncached(i int, sig []byte, domain byte, payload []byte) bool {
	return k.verify(i, sig, domain, payload, false)
}

//faustlint:hotpath
func (k *Keyring) verify(i int, sig []byte, domain byte, payload []byte, cached bool) bool {
	if i < 0 || i >= len(k.pubs) {
		return false
	}
	if len(sig) != SignatureSize {
		return false
	}
	bp := scratchPool.Get().(*[]byte)
	buf := binary.BigEndian.AppendUint32((*bp)[:0], uint32(i))
	buf = append(buf, domain)
	buf = append(buf, payload...)
	msg := buf[4:]
	buf = append(buf, sig...)
	var key verifiedKey
	ok := false
	if cached {
		key = verifiedKey(sha256.Sum256(buf))
		ok = k.verified.contains(&key)
	}
	if ok {
		verifiedHits.Inc()
	} else {
		start := obs.StartTimer()
		ok = ed25519.Verify(k.pubs[i], msg, sig)
		verifyNs.ObserveSince(start)
		if ok && cached {
			k.verified.insert(&key)
		}
	}
	*bp = buf
	scratchPool.Put(bp)
	return ok
}

// GenerateKeyring creates a fresh keyring for n clients with cryptographic
// randomness and returns it together with the n signers.
func GenerateKeyring(n int) (*Keyring, []*Signer, error) {
	if n <= 0 {
		return nil, nil, fmt.Errorf("crypto: keyring size must be positive, got %d", n)
	}
	ring := &Keyring{pubs: make([]ed25519.PublicKey, n)}
	signers := make([]*Signer, n)
	for i := 0; i < n; i++ {
		pub, priv, err := ed25519.GenerateKey(rand.Reader)
		if err != nil {
			return nil, nil, fmt.Errorf("crypto: generating key %d: %w", i, err)
		}
		ring.pubs[i] = pub
		signers[i] = &Signer{id: i, key: priv}
	}
	return ring, signers, nil
}

// NewTestKeyring creates a deterministic keyring for n clients derived
// from the given seed. It is intended for tests and benchmarks where
// reproducibility matters; the keys are NOT secure.
func NewTestKeyring(n int, seed int64) (*Keyring, []*Signer) {
	if n <= 0 {
		panic(fmt.Sprintf("crypto: test keyring size must be positive, got %d", n))
	}
	rng := mathrand.New(mathrand.NewPCG(uint64(seed), uint64(seed)^0x9e3779b97f4a7c15))
	ring := &Keyring{pubs: make([]ed25519.PublicKey, n)}
	signers := make([]*Signer, n)
	for i := 0; i < n; i++ {
		seedBytes := make([]byte, ed25519.SeedSize)
		for j := range seedBytes {
			seedBytes[j] = byte(rng.IntN(256))
		}
		priv := ed25519.NewKeyFromSeed(seedBytes)
		ring.pubs[i] = priv.Public().(ed25519.PublicKey)
		signers[i] = &Signer{id: i, key: priv}
	}
	return ring, signers
}

// ErrShortBuffer reports a malformed encoded keyring.
var ErrShortBuffer = errors.New("crypto: short buffer decoding keyring")

// MarshalKeyring encodes the public keys for distribution to clients, for
// example over the wire by cmd/faust-server.
func MarshalKeyring(k *Keyring) []byte {
	buf := make([]byte, 4, 4+len(k.pubs)*ed25519.PublicKeySize)
	binary.BigEndian.PutUint32(buf, uint32(len(k.pubs)))
	for _, p := range k.pubs {
		buf = append(buf, p...)
	}
	return buf
}

// UnmarshalKeyring decodes a keyring produced by MarshalKeyring.
func UnmarshalKeyring(data []byte) (*Keyring, error) {
	if len(data) < 4 {
		return nil, ErrShortBuffer
	}
	n := int(binary.BigEndian.Uint32(data))
	data = data[4:]
	if n < 0 || len(data) != n*ed25519.PublicKeySize {
		return nil, ErrShortBuffer
	}
	ring := &Keyring{pubs: make([]ed25519.PublicKey, n)}
	for i := 0; i < n; i++ {
		key := make([]byte, ed25519.PublicKeySize)
		copy(key, data[i*ed25519.PublicKeySize:])
		ring.pubs[i] = key
	}
	return ring, nil
}
