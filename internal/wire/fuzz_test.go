package wire_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"faust/internal/version"
	"faust/internal/wire"
)

// seedMessages returns one representative of every message kind, with
// the optional sections exercised in both states where they exist.
func seedMessages() []wire.Message {
	ver := version.New(2)
	ver.V[0], ver.V[1] = 3, 5
	ver.M[0] = []byte{0xaa, 0xbb}
	ver.M[1] = nil // nil and empty digests are distinct on the wire

	sv := wire.SignedVersion{Committer: 1, Ver: ver, Sig: []byte("sig")}
	inv := wire.Invocation{Client: 0, Op: wire.OpWrite, Reg: 0, SubmitSig: []byte("sigma")}
	commit := &wire.Commit{Ver: ver, CommitSig: []byte("phi")}
	proofs := []wire.ProofEntry{
		{Hash: bytes.Repeat([]byte{0x11}, 32)},                      // never committed
		{Hash: bytes.Repeat([]byte{0x22}, 32), Sig: []byte("phi1")}, // committed
	}
	tc := &wire.TraceCtx{Span: 0x1122334455667788, Flags: wire.TraceFlagKeep}
	copy(tc.ID[:], "trace-id-16-byte")
	tinv := inv
	tinv.Trace = tc
	hinv := wire.Invocation{Client: 1, Op: wire.OpRead, Reg: 0, SubmitSig: []byte("sigma"), XHash: bytes.Repeat([]byte{0x5a}, 32)}
	htinv := hinv
	htinv.Trace = tc

	return []wire.Message{
		&wire.Submit{T: 7, Inv: inv, Value: []byte("value")},
		&wire.Submit{T: 8, Inv: inv, Value: nil, Piggyback: commit},
		&wire.Submit{T: 9, Inv: tinv, Value: []byte("traced")},
		&wire.Submit{T: 10, Inv: hinv, Piggyback: commit},
		&wire.Submit{T: 11, Inv: htinv, Value: []byte{}},
		&wire.Reply{IsRead: false, C: 2, CVer: sv, L: []wire.Invocation{inv}, P: proofs},
		&wire.Reply{IsRead: true, C: 1, CVer: sv, JVer: sv, P: proofs,
			Mem: wire.MemEntry{T: 3, Value: []byte{}, Op: wire.OpWrite, Reg: 0, SubmitSig: []byte("d")}},
		&wire.Reply{IsRead: false, C: 2, CVer: sv, L: []wire.Invocation{tinv}, Trace: tc},
		&wire.Reply{IsRead: true, C: 2, CVer: sv, JVer: sv,
			Mem: wire.MemEntry{T: 4, Value: []byte("v"), Op: wire.OpRead, Reg: 1, SubmitSig: []byte("d")}},
		&wire.Reply{IsRead: false, C: 0, CVer: sv, L: []wire.Invocation{hinv, htinv, inv}, P: proofs},
		commit,
		&wire.Probe{From: 3},
		&wire.VersionMsg{From: 1, SV: sv},
		&wire.Failure{From: 2},
		&wire.Failure{From: 2, HasEvidence: true, EvidenceA: sv, EvidenceB: sv},
		&wire.LSSubmit{Op: wire.OpWrite, Reg: 1, Value: []byte("x"), HaveSeq: 9},
		&wire.LSReply{Records: []wire.LSRecord{{
			Seq: 1, Client: 0, Op: wire.OpWrite, Reg: 0,
			ValueHash: []byte("vh"), ChainHash: []byte("ch"), Sig: []byte("s"),
		}}, Value: []byte("val")},
		&wire.LSCommit{Record: wire.LSRecord{Seq: 2, Client: 1, Op: wire.OpRead, Reg: 0,
			ChainHash: []byte("ch2"), Sig: []byte("s2")}},
		&wire.BlobPut{ID: 1, Hash: []byte("h"), Data: []byte("blob")},
		&wire.BlobPut{ID: 5, Hash: []byte("h"), Data: []byte("blob"), Trace: tc},
		&wire.BlobAck{ID: 1, Hash: []byte("h"), OK: false, Msg: "tampered"},
		&wire.BlobAck{ID: 2, Hash: []byte("h"), OK: true, Msg: "", Trace: tc},
		&wire.BlobGet{ID: 3, Hash: []byte("h")},
		&wire.BlobGet{ID: 6, Hash: []byte("h"), Trace: tc},
		&wire.BlobData{ID: 3, Hash: []byte("h"), Found: true, Data: []byte("blob")},
		&wire.BlobData{ID: 4, Hash: []byte("h"), Found: false, Trace: tc},
	}
}

// seedStates returns server-state snapshots: the initial state and one
// with committed versions, values and pending tuples.
func seedStates() []*wire.ServerState {
	ver := version.New(2)
	ver.V[0] = 3
	ver.M[0] = bytes.Repeat([]byte{0xaa}, 32)
	inv := wire.Invocation{Client: 1, Op: wire.OpRead, Reg: 0, SubmitSig: []byte("sigma")}
	hinv := wire.Invocation{Client: 0, Op: wire.OpWrite, Reg: 0, SubmitSig: []byte("sigma"), XHash: bytes.Repeat([]byte{0x5a}, 32)}
	return []*wire.ServerState{
		{N: 1, C: 0, Mem: make([]wire.MemEntry, 1), Sver: []wire.SignedVersion{wire.ZeroSignedVersion(1)}},
		{N: 2, C: 0,
			Mem:  []wire.MemEntry{{T: 3, Value: []byte("x"), Op: wire.OpWrite, Reg: 0, SubmitSig: []byte("d")}, {}},
			Sver: []wire.SignedVersion{{Committer: 0, Ver: ver, Sig: []byte("phi")}, wire.ZeroSignedVersion(2)},
			L:    []wire.Invocation{inv, hinv}},
	}
}

// FuzzWireDecode checks that the frame codec is strictly canonical:
// every byte string the decoder accepts re-encodes to exactly itself.
// The same holds for server-state snapshots, which share the codec.
// This is a protocol property, not a convenience — SUBMIT and COMMIT
// signatures cover encoded payloads, so if two distinct byte strings
// decoded to the same message, a malicious server could swap one for
// the other behind a valid signature check. The property implies, and
// so subsumes, ordinary round-trip correctness.
func FuzzWireDecode(f *testing.F) {
	for _, m := range seedMessages() {
		f.Add(wire.Encode(m))
	}
	// Malformed seeds: empty, unknown kind, truncated, trailing byte.
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00})
	f.Add(wire.Encode(&wire.Probe{From: 1})[:3])
	f.Add(append(wire.Encode(&wire.Probe{From: 1}), 0x00))
	for _, st := range seedStates() {
		enc := wire.EncodeServerState(st)
		f.Add(enc)
		// The format before the proof array was derived: the state
		// carried P[0..n-1] after L. It must stay rejected.
		for i := 0; i < st.N; i++ {
			enc = append(enc, 0xff, 0xff, 0xff, 0xff)
		}
		f.Add(enc)
	}
	// A COMMIT as encoded when it still carried a PROOF-signature.
	f.Add(append(wire.Encode(&wire.Commit{Ver: version.New(1), CommitSig: []byte("phi")}), 0, 0, 0, 3, 'p', 's', 'i'))
	// The encodings from before the DATA-signature was folded into the
	// SUBMIT-signature: a write and a read SUBMIT with delta after the
	// value, and a state whose MEM entry carries delta instead of the
	// invocation's (op, reg, sigma) and whose tuple has no value hash.
	for _, old := range legacyEncodings() {
		f.Add(old)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if st, err := wire.DecodeServerState(data); err == nil {
			if re := wire.EncodeServerState(st); !bytes.Equal(re, data) {
				t.Fatalf("accepted non-canonical state:\n in: %x\nout: %x", data, re)
			}
		}
		m, err := wire.Decode(data)
		if err != nil {
			return // rejected inputs are out of scope
		}
		re := wire.Encode(m)
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted non-canonical frame:\n in: %x\nout: %x", data, re)
		}
		if n := wire.EncodedSize(m); n != len(re) {
			t.Fatalf("EncodedSize = %d, encoding is %d bytes", n, len(re))
		}
	})
}

// legacyEncodings hand-builds frames and a snapshot in the format that
// carried the DATA-signature: the SUBMIT ends its body with delta before
// the piggyback flag, MEM entries are (t, value, delta), and invocation
// tuples are (client, op, reg, sigma, trace) without a value hash.
func legacyEncodings() [][]byte {
	u32 := binary.BigEndian.AppendUint32
	i64 := func(b []byte, v int64) []byte { return binary.BigEndian.AppendUint64(b, uint64(v)) }
	bs := func(b, x []byte) []byte { return append(u32(b, uint32(len(x))), x...) }
	delta := bytes.Repeat([]byte{0x44}, 64)
	tuple := func(b []byte, client, reg uint32, op byte) []byte {
		b = append(u32(b, client), op)
		b = bs(u32(b, reg), []byte("sigma"))
		return append(b, 0) // no trace
	}

	submit := i64([]byte{byte(wire.KindSubmit)}, 1)
	submit = tuple(submit, 0, 0, byte(wire.OpWrite))
	submit = bs(submit, []byte("v1"))
	submit = append(bs(submit, delta), 0)

	read := i64([]byte{byte(wire.KindSubmit)}, 2)
	read = tuple(read, 1, 0, byte(wire.OpRead))
	read = u32(read, ^uint32(0)) // no value
	read = append(bs(read, delta), 0)

	state := u32(u32(nil, 1), 0)                           // n = 1, c = 0
	state = bs(bs(i64(state, 1), []byte("v1")), delta)     // MEM[0]
	state = u32(u32(state, ^uint32(0)), 1)                 // SVER[0]: zero version
	state = u32(i64(state, 0), ^uint32(0))                 // M[0] = bottom
	state = u32(state, ^uint32(0))                         // no signature
	state = tuple(u32(state, 1), 0, 0, byte(wire.OpWrite)) // L = [one tuple]
	return [][]byte{submit, read, state}
}

// The legacy encodings are refused, not read as something else.
func TestLegacyEncodingsRejected(t *testing.T) {
	for i, old := range legacyEncodings() {
		if m, err := wire.Decode(old); err == nil {
			t.Errorf("legacy encoding %d decoded as %#v", i, m)
		}
		if st, err := wire.DecodeServerState(old); err == nil {
			t.Errorf("legacy encoding %d decoded as state %#v", i, st)
		}
	}
}
