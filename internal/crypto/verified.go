package crypto

import (
	"encoding/binary"
	"sync"

	"faust/internal/obs"
)

// Verified-signature cache.
//
// Ed25519 verification is a pure function of (public key, message,
// signature), and in USTOR the same triple reaches a process many times:
// every client sharing a keyring re-checks the SVER[c] and SUBMIT
// signatures the server echoes to all of them, the line-41 check of P[k]
// presents the very COMMIT-signature another client already accepted as
// SVER[c], the line-50 check of MEM[j] presents the SUBMIT-signature of
// an operation line 43 already accepted in L, and a reader re-checks an
// unchanged SVER[j] and MEM[j] on every read. Each Keyring therefore
// remembers the triples a real ed25519.Verify in this process has
// accepted. The key is H(signer index ‖ domain ‖ payload ‖ signature)
// with H = SHA-256, the collision-resistant hash Section 2 already
// assumes, so a hit is exactly as strong as verifying again: any
// differing byte — signer, domain, payload or signature — yields a
// different key and a real verification. Rejected triples are never
// inserted, so a forgery costs a full verification every time it is
// presented. One-shot payloads (Keyring.VerifyUncached) bypass the table.

// Cache geometry: verifiedSets sets of verifiedWays keys each, FIFO
// replacement inside a set. SHA-256 keys spread uniformly over the sets,
// so the table behaves like one 512-entry FIFO. Re-checks follow the
// original closely: on the benchmark's faust-mem workload a 4096-entry
// table skipped no more verifications than this one.
const (
	verifiedWays     = 8
	verifiedSets     = 64
	verifiedCapacity = verifiedWays * verifiedSets
)

// verifiedHits counts verifications answered from the cache. The
// faust_ed25519_verify_ns histogram counts only real verifications, so
// the two together give the total number of signature checks.
var verifiedHits = obs.Default().Counter("faust_verify_cache_hits_total")

func init() {
	obs.Default().Help("faust_verify_cache_hits_total",
		"signature checks answered by a keyring's verified-signature cache instead of ed25519.Verify")
}

type verifiedKey [HashSize]byte

// verifiedSet is one FIFO set: keys[:used] are filled, next is the slot
// the following insert overwrites.
type verifiedSet struct {
	keys [verifiedWays]verifiedKey
	used uint8
	next uint8
}

// verifiedCache is a bounded, concurrency-safe set of accepted triples.
// The zero value is an empty cache; the table is allocated on the first
// insert, so keyrings that never accept a signature (a server that does
// not verify, short-lived tools) carry no table.
type verifiedCache struct {
	mu   sync.Mutex
	sets *[verifiedSets]verifiedSet
}

func (s *verifiedSet) has(key *verifiedKey) bool {
	for i := uint8(0); i < s.used; i++ {
		if s.keys[i] == *key {
			return true
		}
	}
	return false
}

func (k *verifiedKey) set() int {
	return int(binary.LittleEndian.Uint64(k[:8]) % verifiedSets)
}

// contains reports whether key was inserted and not yet evicted.
//
//faustlint:hotpath
func (c *verifiedCache) contains(key *verifiedKey) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sets == nil {
		return false
	}
	return c.sets[key.set()].has(key)
}

// insert records key, evicting the oldest key of its set when the set is
// full. Callers insert only after a real verification accepted the
// triple.
//
//faustlint:hotpath
func (c *verifiedCache) insert(key *verifiedKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sets == nil {
		c.sets = new([verifiedSets]verifiedSet)
	}
	s := &c.sets[key.set()]
	if s.has(key) {
		return // a concurrent verification of the same triple won
	}
	s.keys[s.next] = *key
	s.next = (s.next + 1) % verifiedWays
	if s.used < verifiedWays {
		s.used++
	}
}
