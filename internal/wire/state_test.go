package wire

import (
	"bytes"
	"testing"

	"faust/internal/version"
)

func sampleState() *ServerState {
	v := version.New(2)
	v.V[0] = 3
	v.M[0] = bytes.Repeat([]byte{0xaa}, 32)
	return &ServerState{
		N: 2,
		C: 1,
		Mem: []MemEntry{
			{T: 3, Value: []byte("x"), Op: OpWrite, Reg: 0, SubmitSig: []byte("d0")},
			{T: 0}, // initial: bottom value, no signature
		},
		Sver: []SignedVersion{
			{Committer: 0, Ver: v, Sig: []byte("s0")},
			ZeroSignedVersion(2),
		},
		L: []Invocation{
			{Client: 1, Op: OpRead, Reg: 0, SubmitSig: []byte("sig")},
		},
	}
}

// EncodeServerState sizes its buffer with stateSize; an estimate that is
// short makes every snapshot regrow and copy itself, one that is long
// wastes the slack. Both sides must match exactly for every kind of
// entry: traced and untraced L tuples with and without a value hash, and
// MEM entries refreshed by a read (bottom or kept value) or by a write.
func TestServerStateSizeExact(t *testing.T) {
	sig := bytes.Repeat([]byte{0x5e}, 64)
	h := bytes.Repeat([]byte{0x11}, 32)
	tc := &TraceCtx{Span: 7, Flags: TraceFlagKeep}
	tc.ID[0] = 0xfa
	v := version.New(3)
	v.V[0], v.V[2] = 2, 1
	v.M[0], v.M[2] = bytes.Repeat([]byte{0xaa}, 32), bytes.Repeat([]byte{0xbb}, 32)
	states := map[string]*ServerState{
		"initial": {N: 1, Mem: make([]MemEntry, 1), Sver: []SignedVersion{ZeroSignedVersion(1)}},
		"sample":  sampleState(),
		"busy": {N: 3, C: 2,
			Mem: []MemEntry{
				{T: 2, Value: []byte("written"), Op: OpWrite, Reg: 0, SubmitSig: sig},
				{T: 4, Op: OpRead, Reg: 2, SubmitSig: sig},                  // read, never wrote
				{T: 1, Value: []byte{}, Op: OpRead, Reg: 0, SubmitSig: sig}, // read after an empty write
			},
			Sver: []SignedVersion{{Committer: 0, Ver: v, Sig: sig}, ZeroSignedVersion(3), {Committer: 2, Ver: v, Sig: sig}},
			L: []Invocation{
				{Client: 0, Op: OpWrite, Reg: 0, SubmitSig: sig, XHash: h},
				{Client: 1, Op: OpRead, Reg: 2, SubmitSig: sig, Trace: tc},
				{Client: 2, Op: OpRead, Reg: 0, SubmitSig: sig, XHash: h, Trace: tc},
				{Client: 1, Op: OpRead, Reg: 1, SubmitSig: sig},
			}},
	}
	for name, st := range states {
		enc := EncodeServerState(st)
		if want := stateSize(st); len(enc) != want || cap(enc) != want {
			t.Errorf("%s: len %d, cap %d, stateSize %d", name, len(enc), cap(enc), want)
		}
		if _, err := DecodeServerState(enc); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestServerStateRoundTrip(t *testing.T) {
	st := sampleState()
	enc := EncodeServerState(st)
	got, err := DecodeServerState(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !bytes.Equal(EncodeServerState(got), enc) {
		t.Fatal("re-encoding differs from original encoding")
	}
	if got.N != st.N || got.C != st.C {
		t.Fatalf("scalars: got n=%d c=%d", got.N, got.C)
	}
	if got.Mem[1].Value != nil || got.Sver[1].Sig != nil {
		t.Fatal("nil (bottom) entries did not survive the round trip")
	}
	if !got.Sver[0].Ver.Equal(st.Sver[0].Ver) {
		t.Fatalf("version mismatch: %v != %v", got.Sver[0].Ver, st.Sver[0].Ver)
	}
}

func TestServerStateDecodeRejectsMalformed(t *testing.T) {
	enc := EncodeServerState(sampleState())
	cases := map[string][]byte{
		"empty":     {},
		"truncated": enc[:len(enc)-1],
		"trailing":  append(append([]byte(nil), enc...), 0),
		"zero-n":    {0, 0, 0, 0},
		"huge-n":    {0xff, 0xff, 0xff, 0xfe},
		"bad-c":     func() []byte { b := append([]byte(nil), enc...); b[7] = 9; return b }(),
		"negative-c": func() []byte {
			b := append([]byte(nil), enc...)
			b[4], b[5], b[6], b[7] = 0xff, 0xff, 0xff, 0xff
			return b
		}(),
	}
	for name, data := range cases {
		if _, err := DecodeServerState(data); err == nil {
			t.Errorf("%s: malformed state accepted", name)
		}
	}
}
