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
			{T: 3, Value: []byte("x"), DataSig: []byte("d0")},
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
