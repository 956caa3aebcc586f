package wire

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"faust/internal/crypto"
	"faust/internal/version"
)

func sampleVersion(n int, seed int64) version.Version {
	rng := rand.New(rand.NewSource(seed))
	v := version.New(n)
	for i := 0; i < n; i++ {
		v.V[i] = int64(rng.Intn(100))
		if rng.Intn(3) > 0 {
			d := make([]byte, 32)
			rng.Read(d)
			v.M[i] = d
		}
	}
	return v
}

func sampleSignedVersion(n int, seed int64) SignedVersion {
	rng := rand.New(rand.NewSource(seed))
	sig := make([]byte, 64)
	rng.Read(sig)
	return SignedVersion{Committer: int(seed) % n, Ver: sampleVersion(n, seed), Sig: sig}
}

// sampleProofs returns a proof array for n clients: every entry carries a
// version hash, and the clients listed in signed also carry a signature.
func sampleProofs(n int, signed ...int) []ProofEntry {
	p := make([]ProofEntry, n)
	for k := range p {
		p[k].Hash = bytes.Repeat([]byte{byte(k + 1)}, crypto.HashSize)
	}
	for _, k := range signed {
		p[k].Sig = bytes.Repeat([]byte{byte(0x80 + k)}, 64)
	}
	return p
}

func sampleInvocation(seed int64) Invocation {
	rng := rand.New(rand.NewSource(seed))
	sig := make([]byte, 64)
	rng.Read(sig)
	op := OpRead
	if seed%2 == 0 {
		op = OpWrite
	}
	inv := Invocation{Client: rng.Intn(8), Op: op, Reg: rng.Intn(8), SubmitSig: sig}
	if seed%3 != 0 {
		inv.XHash = make([]byte, crypto.HashSize)
		rng.Read(inv.XHash)
	}
	return inv
}

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	data := Encode(m)
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode(%T): %v", m, err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip mismatch:\n sent %#v\n got  %#v", m, got)
	}
	return got
}

func TestSubmitRoundTrip(t *testing.T) {
	roundTrip(t, &Submit{
		T:     42,
		Inv:   sampleInvocation(1),
		Value: []byte("the value"),
	})
}

func TestSubmitRoundTripNilValue(t *testing.T) {
	// Reads carry no value; nil must survive the codec (not become empty).
	m := &Submit{T: 1, Inv: sampleInvocation(2), Value: nil}
	got := roundTrip(t, m).(*Submit)
	if got.Value != nil {
		t.Fatal("nil Value decoded as non-nil")
	}
}

func TestReplyWriteRoundTrip(t *testing.T) {
	roundTrip(t, &Reply{
		IsRead: false,
		C:      3,
		CVer:   sampleSignedVersion(4, 5),
		L:      []Invocation{sampleInvocation(6), sampleInvocation(7)},
		P:      sampleProofs(4, 1, 3),
	})
}

func TestReplyReadRoundTrip(t *testing.T) {
	roundTrip(t, &Reply{
		IsRead: true,
		C:      0,
		CVer:   sampleSignedVersion(4, 8),
		JVer:   sampleSignedVersion(4, 9),
		Mem:    MemEntry{T: 17, Value: []byte("v"), Op: OpWrite, Reg: 3, SubmitSig: bytes.Repeat([]byte{2}, 64)},
		L:      []Invocation{},
		P:      sampleProofs(4),
	})
}

func TestReplyZeroVersionRoundTrip(t *testing.T) {
	roundTrip(t, &Reply{
		IsRead: false,
		C:      0,
		CVer:   ZeroSignedVersion(3),
		L:      []Invocation{},
		P:      sampleProofs(3),
	})
}

func TestCommitRoundTrip(t *testing.T) {
	roundTrip(t, &Commit{
		Ver:       sampleVersion(5, 11),
		CommitSig: bytes.Repeat([]byte{3}, 64),
	})
}

func TestProbeRoundTrip(t *testing.T) {
	roundTrip(t, &Probe{From: 2})
}

func TestVersionMsgRoundTrip(t *testing.T) {
	roundTrip(t, &VersionMsg{From: 1, SV: sampleSignedVersion(3, 13)})
}

func TestFailureRoundTrip(t *testing.T) {
	roundTrip(t, &Failure{From: 0})
	roundTrip(t, &Failure{
		From:        2,
		HasEvidence: true,
		EvidenceA:   sampleSignedVersion(3, 14),
		EvidenceB:   sampleSignedVersion(3, 15),
	})
}

func TestZeroSignedVersion(t *testing.T) {
	sv := ZeroSignedVersion(4)
	if sv.Committer != -1 || sv.Sig != nil || !sv.Ver.IsZero() || sv.Ver.N() != 4 {
		t.Fatalf("bad zero signed version: %+v", sv)
	}
	roundTrip(t, &VersionMsg{From: 0, SV: sv})
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{99},                                  // unknown kind
		{byte(KindProbe)},                     // truncated body
		append(Encode(&Probe{From: 1}), 0xEE), // trailing garbage
	}
	for i, data := range cases {
		if _, err := Decode(data); err == nil {
			t.Fatalf("case %d: garbage accepted", i)
		}
	}
}

func TestDecodeRejectsTruncations(t *testing.T) {
	full := Encode(&Reply{
		IsRead: true,
		C:      1,
		CVer:   sampleSignedVersion(3, 20),
		JVer:   sampleSignedVersion(3, 21),
		Mem:    MemEntry{T: 5, Value: []byte("x"), Op: OpRead, Reg: 2, SubmitSig: bytes.Repeat([]byte{9}, 64)},
		L:      []Invocation{sampleInvocation(22)},
		P:      sampleProofs(3, 1),
	})
	for cut := 1; cut < len(full); cut++ {
		if _, err := Decode(full[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestDecodeRejectsHugeVector(t *testing.T) {
	// A malicious length prefix must not cause a huge allocation.
	buf := []byte{byte(KindCommit)}
	buf = appendU32(buf, 1<<30) // absurd version dimension
	if _, err := Decode(buf); err == nil {
		t.Fatal("huge vector length accepted")
	}
}

func TestOpCodeString(t *testing.T) {
	if OpRead.String() != "READ" || OpWrite.String() != "WRITE" {
		t.Fatal("OpCode.String wrong")
	}
	if OpCode(0).String() == "READ" {
		t.Fatal("zero OpCode must not be READ")
	}
}

func TestSubmitPayloadInjective(t *testing.T) {
	seen := map[string]string{}
	add := func(name string, p []byte) {
		if prev, ok := seen[string(p)]; ok {
			t.Fatalf("payload collision between %s and %s", prev, name)
		}
		seen[string(p)] = name
	}
	add("read-0-1", SubmitPayload(OpRead, 0, 1, nil))
	add("write-0-1", SubmitPayload(OpWrite, 0, 1, nil))
	add("read-1-1", SubmitPayload(OpRead, 1, 1, nil))
	add("read-0-2", SubmitPayload(OpRead, 0, 2, nil))
	h := crypto.Hash([]byte("x"))
	add("read-0-1-hashed", SubmitPayload(OpRead, 0, 1, h))
	add("write-0-1-hashed", SubmitPayload(OpWrite, 0, 1, h))
	add("read-0-1-other-hash", SubmitPayload(OpRead, 0, 1, crypto.Hash([]byte("y"))))
}

// The value hash closes the payload with the bottom/hash encoding: 0 for
// bottom, 1 followed by the hash otherwise.
func TestSubmitPayloadBottomVsHash(t *testing.T) {
	a := SubmitPayload(OpWrite, 0, 1, nil)
	b := SubmitPayload(OpWrite, 0, 1, []byte{})
	if bytes.Equal(a, b) {
		t.Fatal("bottom xbar and empty xbar must differ")
	}
	if c := SubmitPayload(OpWrite, 0, 2, nil); bytes.Equal(a, c) {
		t.Fatal("timestamp must be covered")
	}
	h := crypto.Hash([]byte("v"))
	want := append(SubmitPayload(OpWrite, 0, 1, nil)[:len(a)-1], 1)
	if got := SubmitPayload(OpWrite, 0, 1, h); !bytes.Equal(got, append(want, h...)) {
		t.Fatalf("hashed payload = %x, want prefix || 1 || hash", got)
	}
}

// The COMMIT payload is M[i] || H(canonical bytes of the version): the
// version enters only through the hash of its canonical encoding, and the
// line-41 form rebuilt from (M[i], hash) is byte for byte the same.
func TestCommitPayloadMatchesCanonicalBytes(t *testing.T) {
	v := sampleVersion(3, 33)
	v.M[1] = bytes.Repeat([]byte{0x5a}, 32)
	h := crypto.Hash(v.AppendCanonical(nil))
	want := appendBytes(nil, v.M[1])
	want = append(want, h...)
	if got := CommitPayload(1, v); !bytes.Equal(got, want) {
		t.Fatalf("CommitPayload = %x, want M[1] || H(canonical) = %x", got, want)
	}
	if !bytes.Equal(VersionHash(v), h) {
		t.Fatal("VersionHash must hash the canonical version encoding")
	}
	if got := AppendCommitPayloadHash(nil, v.M[1], h); !bytes.Equal(got, want) {
		t.Fatal("AppendCommitPayloadHash must rebuild the COMMIT payload from (M[i], hash)")
	}
}

// Every component of the version is bound: changing a timestamp, another
// client's digest, the committer index or turning the own digest into
// bottom all change the payload.
func TestCommitPayloadBindsVersion(t *testing.T) {
	v := sampleVersion(3, 34)
	v.M[0] = bytes.Repeat([]byte{1}, 32)
	v.M[2] = bytes.Repeat([]byte{2}, 32)
	base := CommitPayload(0, v)
	variants := map[string]func() []byte{
		"timestamp bumped": func() []byte { w := v.Clone(); w.V[1]++; return CommitPayload(0, w) },
		"other digest":     func() []byte { w := v.Clone(); w.M[2][0] ^= 1; return CommitPayload(0, w) },
		"other committer":  func() []byte { return CommitPayload(2, v) },
		"bottom own entry": func() []byte { w := v.Clone(); w.M[0] = nil; return CommitPayload(0, w) },
		"out-of-range":     func() []byte { return CommitPayload(7, v) },
	}
	for name, f := range variants {
		if bytes.Equal(f(), base) {
			t.Errorf("%s: payload unchanged", name)
		}
	}
}

func TestAppendCommitPayloadAllocFree(t *testing.T) {
	v := sampleVersion(8, 35)
	buf := make([]byte, 0, 1024)
	allocs := testing.AllocsPerRun(100, func() {
		buf = AppendCommitPayload(buf[:0], 3, v)
	})
	if allocs != 0 {
		t.Fatalf("AppendCommitPayload allocated %.1f times per call", allocs)
	}
}

func TestSignedVersionClone(t *testing.T) {
	sv := sampleSignedVersion(3, 40)
	c := sv.Clone()
	c.Sig[0] ^= 0xFF
	c.Ver.V[0] = 999
	if sv.Sig[0] == c.Sig[0] || sv.Ver.V[0] == 999 {
		t.Fatal("Clone shares memory")
	}
}

func TestMemEntryClone(t *testing.T) {
	m := MemEntry{T: 1, Value: []byte("v"), Op: OpRead, Reg: 1, SubmitSig: []byte("s")}
	c := m.Clone()
	if c.Op != OpRead || c.Reg != 1 {
		t.Fatal("Clone lost the invocation's opcode or register")
	}
	c.Value[0] = 'x'
	c.SubmitSig[0] = 'y'
	if m.Value[0] != 'v' || m.SubmitSig[0] != 's' {
		t.Fatal("Clone shares memory")
	}
	nilClone := (MemEntry{T: 2}).Clone()
	if nilClone.Value != nil || nilClone.SubmitSig != nil {
		t.Fatal("nil fields must stay nil")
	}
}

func TestEncodedSizeMatchesEncode(t *testing.T) {
	m := &Commit{Ver: sampleVersion(4, 50), CommitSig: []byte("c")}
	if EncodedSize(m) != len(Encode(m)) {
		t.Fatal("EncodedSize disagrees with Encode")
	}
}

// Property: random replies round-trip through the codec.
func TestQuickReplyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 200; iter++ {
		n := 1 + rng.Intn(6)
		rp := &Reply{
			IsRead: rng.Intn(2) == 0,
			C:      rng.Intn(n),
			CVer:   sampleSignedVersion(n, rng.Int63()),
			L:      make([]Invocation, rng.Intn(4)),
			P:      sampleProofs(n),
		}
		for i := range rp.L {
			rp.L[i] = sampleInvocation(rng.Int63())
		}
		for i := range rp.P {
			if rng.Intn(2) == 0 {
				rp.P[i].Sig = []byte{byte(i)}
			}
		}
		if rp.IsRead {
			rp.JVer = sampleSignedVersion(n, rng.Int63())
			rp.Mem = MemEntry{T: rng.Int63n(100), Value: []byte("v"), Op: OpWrite, Reg: rng.Intn(n), SubmitSig: []byte("d")}
		}
		roundTrip(t, rp)
	}
}

// Property: encoding is deterministic.
func TestQuickEncodeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	for iter := 0; iter < 100; iter++ {
		m := &Commit{
			Ver:       sampleVersion(1+rng.Intn(5), rng.Int63()),
			CommitSig: []byte("sig"),
		}
		if !bytes.Equal(Encode(m), Encode(m)) {
			t.Fatal("encoding not deterministic")
		}
	}
}
