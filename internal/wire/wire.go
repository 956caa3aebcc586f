// Package wire defines the message types exchanged by the USTOR and FAUST
// protocols and a canonical, deterministic binary codec for them.
//
// USTOR (client <-> server, Algorithms 1 and 2):
//
//	SUBMIT  carries the operation's timestamp, its invocation tuple
//	        (signed once, over the signer's value hash as well) and the
//	        new value (writes only).
//	REPLY   carries the index c of the last committed operation's client,
//	        the signed version SVER[c], the list L of invocation tuples of
//	        concurrent operations, the proof array P (per client, the hash
//	        of its last committed version and its COMMIT-signature) and,
//	        for reads, SVER[j] and MEM[j] for the requested register j.
//	COMMIT  carries the client's new version with its COMMIT-signature.
//
// FAUST (client <-> client over the offline channel, Section 6):
//
//	PROBE    asks a client for the maximal version it knows.
//	VERSION  carries a signed version in response to a probe (or
//	         proactively).
//	FAILURE  announces a detected server failure, optionally with
//	         verifiable evidence (a pair of incomparable signed versions).
//
// The codec is used verbatim over TCP and for the communication-overhead
// experiments (E6); the in-memory transport moves decoded messages but
// reports their encoded size.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"faust/internal/crypto"
	"faust/internal/version"
)

// OpCode identifies the kind of a storage operation.
type OpCode uint8

// Operation codes. Values start at one so the zero value is invalid.
const (
	OpRead OpCode = iota + 1
	OpWrite
)

// String returns the paper's name for the opcode.
func (o OpCode) String() string {
	switch o {
	case OpRead:
		return "READ"
	case OpWrite:
		return "WRITE"
	default:
		return fmt.Sprintf("OpCode(%d)", uint8(o))
	}
}

// Kind tags the wire messages.
type Kind uint8

// Message kinds. Values start at one so the zero value is invalid.
const (
	KindSubmit Kind = iota + 1
	KindReply
	KindCommit
	KindProbe
	KindVersion
	KindFailure
)

// Message is implemented by every protocol message.
type Message interface {
	// MsgKind returns the message's tag.
	MsgKind() Kind
	// encodeBody appends the message body (without the kind tag) to buf.
	encodeBody(buf []byte) []byte
}

// Invocation is the invocation tuple (i, oc, j, sigma) of Algorithm 1: the
// invoking client, the opcode, the register index and the
// SUBMIT-signature. XHash is H(xbar_i), the hash of the invoker's most
// recently written value as of this operation (nil = bottom): the
// SUBMIT-signature covers it too, standing in for the paper's separate
// DATA-signature (see AppendSubmitPayload), and REPLY.L echoes it so
// verifiers of pending operations rebuild the signed payload. Trace
// optionally carries the operation's distributed-tracing context; it is
// advisory and not signed (see tracectx.go).
type Invocation struct {
	Client    int
	Op        OpCode
	Reg       int
	SubmitSig []byte
	XHash     []byte // nil = bottom, else crypto.HashSize bytes
	Trace     *TraceCtx
}

// SignedVersion pairs a version with the COMMIT-signature of the client
// that committed it. A zero version carries Committer == -1 and no
// signature.
type SignedVersion struct {
	Committer int
	Ver       version.Version
	Sig       []byte
}

// ZeroSignedVersion returns the unsigned initial version for n clients.
func ZeroSignedVersion(n int) SignedVersion {
	return SignedVersion{Committer: -1, Ver: version.New(n)}
}

// Clone returns a deep copy.
func (sv SignedVersion) Clone() SignedVersion {
	c := SignedVersion{Committer: sv.Committer, Ver: sv.Ver.Clone()}
	if sv.Sig != nil {
		c.Sig = append([]byte(nil), sv.Sig...)
	}
	return c
}

// MemEntry is the server's MEM[j] record: the last timestamp and
// register value received from client C_j, with the opcode, register
// and SUBMIT-signature of the invocation that carried that timestamp.
// The signature covers (Op, Reg, T, H(Value)) — the invoker's latest
// value hash — so the line-50 check rebuilds its payload from the entry
// alone. Value == nil encodes the initial bottom value; the initial
// entry (T == 0) has no invocation.
type MemEntry struct {
	T         int64
	Value     []byte
	Op        OpCode
	Reg       int
	SubmitSig []byte
}

// Clone returns a deep copy. Nil and empty byte strings stay distinct: a
// nil Value is the paper's bottom while an empty one is a present
// zero-length register value, and collapsing the latter to nil would
// make honest empty values fail the reader's line-50 check.
func (m MemEntry) Clone() MemEntry {
	c := MemEntry{T: m.T, Op: m.Op, Reg: m.Reg, SubmitSig: cloneBytes(m.SubmitSig)}
	if m.Value != nil {
		c.Value = make([]byte, len(m.Value))
		copy(c.Value, m.Value)
	}
	return c
}

// Submit is the SUBMIT message of Algorithm 1 (lines 15 and 27). The
// paper's SUBMIT also carries a DATA-signature delta on (t, xbar); here
// the invocation's SUBMIT-signature covers H(xbar) itself, so one
// signature per operation attests both (see AppendSubmitPayload).
type Submit struct {
	T     int64      // the operation's timestamp
	Inv   Invocation // invocation tuple (i, oc, j, sigma) with H(xbar)
	Value []byte     // new register value; nil for reads
	// Piggyback optionally carries the COMMIT message of the client's
	// previous operation, realizing the optimization of Section 5 ("this
	// message can be eliminated by piggybacking its contents on the
	// SUBMIT message of the next operation"). The server processes it
	// before the submit, preserving FIFO semantics.
	Piggyback *Commit
}

// Reply is the REPLY message of Algorithm 2 (lines 111 and 114). For
// write operations JVer and Mem are absent (IsRead == false). Trace
// optionally echoes the SUBMIT's trace context back with the server's
// root span, letting the client link the server-side subtree; it is
// advisory (the server signs nothing) and never influences protocol
// state.
type Reply struct {
	IsRead bool
	C      int           // client who committed the last scheduled operation
	CVer   SignedVersion // SVER[c]
	JVer   SignedVersion // SVER[j], reads only
	Mem    MemEntry      // MEM[j], reads only
	L      []Invocation  // invocation tuples of concurrent operations
	P      []ProofEntry  // per client k: (H(SVER[k].Ver), SVER[k].Sig)
	Trace  *TraceCtx
}

// ProofEntry is P[k] of a REPLY: what the line-41 check needs to confirm
// that client C_k committed the operation whose digest the reader
// expects. The paper's server keeps a separate PROOF-signature on M[k]
// for this; here C_k's COMMIT-signature already covers M[k] next to the
// hash of the whole version (see AppendCommitPayload), so P[k] is derived
// from SVER[k] and costs no signature of its own.
type ProofEntry struct {
	Hash []byte // VersionHash(SVER[k].Ver), always crypto.HashSize bytes
	Sig  []byte // SVER[k].Sig; nil = bottom (C_k never committed)
}

// Clone returns a deep copy of the reply sharing no memory with the
// original. The correct server hands out copy-on-write snapshots that
// must never be written through; wrappers that deliberately mutate
// replies (byzantine.ReplyTamperServer) clone first.
func (rp *Reply) Clone() *Reply {
	c := &Reply{
		IsRead: rp.IsRead,
		C:      rp.C,
		CVer:   rp.CVer.Clone(),
		JVer:   rp.JVer.Clone(),
		Mem:    rp.Mem.Clone(),
	}
	if rp.L != nil {
		c.L = make([]Invocation, len(rp.L))
		for i, inv := range rp.L {
			c.L[i] = inv
			c.L[i].SubmitSig = append([]byte(nil), inv.SubmitSig...)
			c.L[i].XHash = cloneBytes(inv.XHash)
			c.L[i].Trace = inv.Trace.Clone()
		}
	}
	if rp.P != nil {
		c.P = make([]ProofEntry, len(rp.P))
		for i, p := range rp.P {
			c.P[i] = ProofEntry{Hash: cloneBytes(p.Hash), Sig: cloneBytes(p.Sig)}
		}
	}
	c.Trace = rp.Trace.Clone()
	return c
}

// Commit is the COMMIT message of Algorithm 1 (lines 19 and 32). It
// carries one signature: phi also stands in for the paper's
// PROOF-signature psi (see ProofEntry).
type Commit struct {
	Ver       version.Version
	CommitSig []byte // phi on M[i] and the version hash
}

// Probe is FAUST's offline PROBE message.
type Probe struct {
	From int
}

// VersionMsg is FAUST's offline VERSION message carrying the maximal
// version the sender knows (not necessarily committed by the sender).
type VersionMsg struct {
	From int
	SV   SignedVersion
}

// Failure is FAUST's offline FAILURE message. When the detection was
// triggered by incomparable versions, Evidence carries the two signed
// versions so that receivers can independently verify server misbehavior.
type Failure struct {
	From        int
	HasEvidence bool
	EvidenceA   SignedVersion
	EvidenceB   SignedVersion
}

// MsgKind implementations.
func (*Submit) MsgKind() Kind     { return KindSubmit }
func (*Reply) MsgKind() Kind      { return KindReply }
func (*Commit) MsgKind() Kind     { return KindCommit }
func (*Probe) MsgKind() Kind      { return KindProbe }
func (*VersionMsg) MsgKind() Kind { return KindVersion }
func (*Failure) MsgKind() Kind    { return KindFailure }

// Interface compliance checks.
var (
	_ Message = (*Submit)(nil)
	_ Message = (*Reply)(nil)
	_ Message = (*Commit)(nil)
	_ Message = (*Probe)(nil)
	_ Message = (*VersionMsg)(nil)
	_ Message = (*Failure)(nil)
)

// Signing payloads. These are the exact byte strings covered by the
// signature kinds of Algorithm 1, rendered canonically. The paper has
// four kinds; here two remain. The DATA-signature delta on (t, xbar) is
// folded into the SUBMIT-signature, and the PROOF-signature psi on M[i]
// into the COMMIT-signature.

// SubmitPayload is the payload of the SUBMIT-signature:
// opcode || register || timestamp || H(xbar). See AppendSubmitPayload.
func SubmitPayload(op OpCode, reg int, t int64, xhash []byte) []byte {
	return AppendSubmitPayload(nil, op, reg, t, xhash)
}

// AppendSubmitPayload appends the SUBMIT-signature payload to buf and
// returns the extended slice; the hot path reuses a scratch buffer. xhash
// is the hash of the signer's most recently written value, or nil
// (bottom) if it never wrote; bottom encodes as a 0 byte and a hash as a
// 1 byte followed by the hash, so the two never collide. Binding xhash
// makes this one signature also the paper's DATA-signature: a signer
// issues one invocation per timestamp, so t alone determines the
// (opcode, register, value hash) a valid signature can carry. The trace
// context is not covered.
func AppendSubmitPayload(buf []byte, op OpCode, reg int, t int64, xhash []byte) []byte {
	buf = append(buf, byte(op))
	buf = appendU32(buf, uint32(reg))
	buf = appendI64(buf, t)
	if xhash == nil {
		return append(buf, 0)
	}
	buf = append(buf, 1)
	return append(buf, xhash...)
}

// CommitPayload is the payload of committer i's COMMIT-signature on
// version v: M[i] || H(canonical(v)). See AppendCommitPayload.
func CommitPayload(i int, v version.Version) []byte {
	return AppendCommitPayload(nil, i, v)
}

// AppendCommitPayload appends committer i's COMMIT-signature payload on v
// to buf and returns the extended slice. The payload is M[i]
// (length-prefixed, the nil sentinel for bottom) followed by
// VersionHash(v), so one signature binds the whole version through the
// hash and also proves, on its own, that C_i committed the operation with
// digest M[i] — the paper's PROOF-signature, which line 41 checks
// through AppendCommitPayloadHash. The canonical encoding is built in
// buf's spare capacity and replaced by its hash, so with enough capacity
// the call is allocation-free. An i outside v encodes M[i] as bottom; no
// honest committer signs that, since its own entry is always set.
func AppendCommitPayload(buf []byte, i int, v version.Version) []byte {
	var m []byte
	if i >= 0 && i < len(v.M) {
		m = v.M[i]
	}
	buf = appendBytes(buf, m)
	mark := len(buf)
	buf = v.AppendCanonical(buf)
	return crypto.HashInto(buf[:mark], buf[mark:])
}

// AppendCommitPayloadHash appends the COMMIT-signature payload for digest
// m and version hash h: the same bytes AppendCommitPayload produces for a
// version whose own entry is m and whose VersionHash is h. Line 41 checks
// P[k] with it without ever seeing C_k's version.
func AppendCommitPayloadHash(buf, m, h []byte) []byte {
	buf = appendBytes(buf, m)
	return append(buf, h...)
}

// VersionHash returns H(canonical(v)), the version hash a
// COMMIT-signature covers.
func VersionHash(v version.Version) []byte {
	buf := GetBuffer()
	*buf = v.AppendCanonical((*buf)[:0])
	h := crypto.Hash(*buf)
	PutBuffer(buf)
	return h
}

// Codec. Values are encoded big-endian; byte strings carry a u32 length
// with the sentinel 0xFFFFFFFF for nil (bottom).

const nilSentinel = ^uint32(0)

// ErrCodec reports a malformed encoded message.
var ErrCodec = errors.New("wire: malformed message")

func appendU8(buf []byte, v uint8) []byte { return append(buf, v) }

func appendU32(buf []byte, v uint32) []byte {
	var tmp [4]byte
	binary.BigEndian.PutUint32(tmp[:], v)
	return append(buf, tmp[:]...)
}

func appendI64(buf []byte, v int64) []byte {
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], uint64(v))
	return append(buf, tmp[:]...)
}

func appendBytes(buf, b []byte) []byte {
	if b == nil {
		return appendU32(buf, nilSentinel)
	}
	buf = appendU32(buf, uint32(len(b)))
	return append(buf, b...)
}

func appendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// appendString encodes a string as u32 length + bytes. Unlike
// appendBytes there is no nil sentinel: Go strings have no nil/empty
// distinction, so giving them one on the wire would create two
// encodings of "" and break canonical round-trips.
func appendString(buf []byte, s string) []byte {
	buf = appendU32(buf, uint32(len(s)))
	return append(buf, s...)
}

func appendVersion(buf []byte, v version.Version) []byte {
	buf = appendU32(buf, uint32(len(v.V)))
	for _, t := range v.V {
		buf = appendI64(buf, t)
	}
	for _, d := range v.M {
		buf = appendBytes(buf, d)
	}
	return buf
}

func appendSignedVersion(buf []byte, sv SignedVersion) []byte {
	buf = appendU32(buf, uint32(int32(sv.Committer)))
	buf = appendVersion(buf, sv.Ver)
	return appendBytes(buf, sv.Sig)
}

func appendInvocation(buf []byte, inv Invocation) []byte {
	buf = appendU32(buf, uint32(inv.Client))
	buf = appendU8(buf, uint8(inv.Op))
	buf = appendU32(buf, uint32(inv.Reg))
	buf = appendBytes(buf, inv.SubmitSig)
	buf = appendBytes(buf, inv.XHash)
	return appendTraceCtx(buf, inv.Trace)
}

func appendMemEntry(buf []byte, m MemEntry) []byte {
	buf = appendI64(buf, m.T)
	buf = appendBytes(buf, m.Value)
	buf = appendU8(buf, uint8(m.Op))
	buf = appendU32(buf, uint32(m.Reg))
	return appendBytes(buf, m.SubmitSig)
}

// reader decodes with sticky error handling.
type reader struct {
	data []byte
	err  error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = ErrCodec
	}
}

func (r *reader) u8() uint8 {
	if r.err != nil || len(r.data) < 1 {
		r.fail()
		return 0
	}
	v := r.data[0]
	r.data = r.data[1:]
	return v
}

func (r *reader) u32() uint32 {
	if r.err != nil || len(r.data) < 4 {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(r.data)
	r.data = r.data[4:]
	return v
}

func (r *reader) i64() int64 {
	if r.err != nil || len(r.data) < 8 {
		r.fail()
		return 0
	}
	v := int64(binary.BigEndian.Uint64(r.data))
	r.data = r.data[8:]
	return v
}

func (r *reader) bytes() []byte {
	n := r.u32()
	if r.err != nil {
		return nil
	}
	if n == nilSentinel {
		return nil
	}
	if uint32(len(r.data)) < n {
		r.fail()
		return nil
	}
	out := make([]byte, n)
	copy(out, r.data[:n])
	r.data = r.data[n:]
	return out
}

// bool accepts exactly 0 or 1. Any other byte is rejected so that every
// accepted frame has a single canonical encoding — a forwarder that
// re-encodes a message must produce the very bytes that were signed.
func (r *reader) bool() bool {
	switch r.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail()
		return false
	}
}

// str decodes an appendString value. The nil sentinel is rejected: ""
// has exactly one encoding (length 0).
func (r *reader) str() string {
	n := r.u32()
	if r.err != nil || n == nilSentinel {
		r.fail()
		return ""
	}
	if uint32(len(r.data)) < n {
		r.fail()
		return ""
	}
	out := string(r.data[:n])
	r.data = r.data[n:]
	return out
}

// maxVectorLen bounds decoded vector sizes to keep a malicious peer from
// forcing huge allocations.
const maxVectorLen = 1 << 20

func (r *reader) version() version.Version {
	n := r.u32()
	if r.err != nil || n > maxVectorLen {
		r.fail()
		return version.Version{}
	}
	v := version.New(int(n))
	for i := range v.V {
		v.V[i] = r.i64()
	}
	for i := range v.M {
		v.M[i] = r.bytes()
	}
	return v
}

func (r *reader) signedVersion() SignedVersion {
	var sv SignedVersion
	sv.Committer = int(int32(r.u32()))
	sv.Ver = r.version()
	sv.Sig = r.bytes()
	return sv
}

func (r *reader) invocation() Invocation {
	var inv Invocation
	inv.Client = int(r.u32())
	inv.Op = OpCode(r.u8())
	inv.Reg = int(r.u32())
	inv.SubmitSig = r.bytes()
	inv.XHash = r.bytes()
	inv.Trace = r.traceCtx()
	return inv
}

func (r *reader) memEntry() MemEntry {
	var m MemEntry
	m.T = r.i64()
	m.Value = r.bytes()
	m.Op = OpCode(r.u8())
	m.Reg = int(r.u32())
	m.SubmitSig = r.bytes()
	return m
}

func (s *Submit) encodeBody(buf []byte) []byte {
	buf = appendI64(buf, s.T)
	buf = appendInvocation(buf, s.Inv)
	buf = appendBytes(buf, s.Value)
	buf = appendBool(buf, s.Piggyback != nil)
	if s.Piggyback != nil {
		buf = s.Piggyback.encodeBody(buf)
	}
	return buf
}

func (rp *Reply) encodeBody(buf []byte) []byte {
	buf = appendBool(buf, rp.IsRead)
	buf = appendU32(buf, uint32(rp.C))
	buf = appendSignedVersion(buf, rp.CVer)
	if rp.IsRead {
		buf = appendSignedVersion(buf, rp.JVer)
		buf = appendMemEntry(buf, rp.Mem)
	}
	buf = appendU32(buf, uint32(len(rp.L)))
	for _, inv := range rp.L {
		buf = appendInvocation(buf, inv)
	}
	buf = appendU32(buf, uint32(len(rp.P)))
	for _, p := range rp.P {
		buf = appendBytes(buf, p.Hash)
		buf = appendBytes(buf, p.Sig)
	}
	return appendTraceCtx(buf, rp.Trace)
}

func (c *Commit) encodeBody(buf []byte) []byte {
	buf = appendVersion(buf, c.Ver)
	return appendBytes(buf, c.CommitSig)
}

func (p *Probe) encodeBody(buf []byte) []byte {
	return appendU32(buf, uint32(p.From))
}

func (v *VersionMsg) encodeBody(buf []byte) []byte {
	buf = appendU32(buf, uint32(v.From))
	return appendSignedVersion(buf, v.SV)
}

func (f *Failure) encodeBody(buf []byte) []byte {
	buf = appendU32(buf, uint32(f.From))
	buf = appendBool(buf, f.HasEvidence)
	if f.HasEvidence {
		buf = appendSignedVersion(buf, f.EvidenceA)
		buf = appendSignedVersion(buf, f.EvidenceB)
	}
	return buf
}

// Encode serializes a message with its kind tag.
func Encode(m Message) []byte {
	buf := make([]byte, 0, 128)
	buf = append(buf, byte(m.MsgKind()))
	return m.encodeBody(buf)
}

// AppendEncode appends the canonical encoding (kind tag + body) to buf and
// returns the extended slice. Combined with GetBuffer/PutBuffer it makes
// serialization allocation-free on the steady path; transports and the WAL
// use it to frame messages directly into reusable buffers.
func AppendEncode(buf []byte, m Message) []byte {
	buf = append(buf, byte(m.MsgKind()))
	return m.encodeBody(buf)
}

// bufPool recycles encoding scratch buffers. Stored as *[]byte so the
// slice header itself does not allocate on Put.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// GetBuffer borrows a zero-length scratch buffer from the codec pool.
// Return it with PutBuffer when the encoded bytes are no longer referenced.
func GetBuffer() *[]byte { return bufPool.Get().(*[]byte) }

// PutBuffer returns a scratch buffer to the codec pool.
func PutBuffer(b *[]byte) {
	*b = (*b)[:0]
	bufPool.Put(b)
}

// EncodedSize returns the length in bytes of the canonical encoding. The
// communication-overhead experiment uses it to measure per-message cost;
// it encodes into a pooled scratch buffer, so the measurement itself does
// not allocate.
func EncodedSize(m Message) int {
	buf := GetBuffer()
	*buf = AppendEncode((*buf)[:0], m) // keep any growth for the pool
	n := len(*buf)
	PutBuffer(buf)
	return n
}

// Decode parses a message produced by Encode. Trailing garbage is
// rejected.
func Decode(data []byte) (Message, error) {
	if len(data) < 1 {
		return nil, ErrCodec
	}
	kind := Kind(data[0])
	r := &reader{data: data[1:]}
	var m Message
	switch kind {
	case KindSubmit:
		s := &Submit{}
		s.T = r.i64()
		s.Inv = r.invocation()
		s.Value = r.bytes()
		if r.bool() {
			c := &Commit{}
			c.Ver = r.version()
			c.CommitSig = r.bytes()
			s.Piggyback = c
		}
		m = s
	case KindReply:
		rp := &Reply{}
		rp.IsRead = r.bool()
		rp.C = int(r.u32())
		rp.CVer = r.signedVersion()
		if rp.IsRead {
			rp.JVer = r.signedVersion()
			rp.Mem = r.memEntry()
		}
		nl := r.u32()
		if r.err == nil && nl <= maxVectorLen {
			rp.L = make([]Invocation, nl)
			for i := range rp.L {
				rp.L[i] = r.invocation()
			}
		} else {
			r.fail()
		}
		np := r.u32()
		if r.err == nil && np <= maxVectorLen {
			rp.P = make([]ProofEntry, np)
			for i := range rp.P {
				rp.P[i].Hash = r.bytes()
				rp.P[i].Sig = r.bytes()
			}
		} else {
			r.fail()
		}
		rp.Trace = r.traceCtx()
		m = rp
	case KindCommit:
		c := &Commit{}
		c.Ver = r.version()
		c.CommitSig = r.bytes()
		m = c
	case KindProbe:
		p := &Probe{}
		p.From = int(r.u32())
		m = p
	case KindVersion:
		v := &VersionMsg{}
		v.From = int(r.u32())
		v.SV = r.signedVersion()
		m = v
	case KindFailure:
		f := &Failure{}
		f.From = int(r.u32())
		f.HasEvidence = r.bool()
		if f.HasEvidence {
			f.EvidenceA = r.signedVersion()
			f.EvidenceB = r.signedVersion()
		}
		m = f
	case KindLSSubmit, KindLSReply, KindLSCommit:
		m = decodeLockstep(kind, r)
		if m == nil {
			return nil, ErrCodec
		}
	case KindBlobPut, KindBlobAck, KindBlobGet, KindBlobData:
		m = decodeBlob(kind, r)
		if m == nil {
			return nil, ErrCodec
		}
	default:
		return nil, fmt.Errorf("%w: unknown kind %d", ErrCodec, kind)
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.data) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCodec, len(r.data))
	}
	return m, nil
}
