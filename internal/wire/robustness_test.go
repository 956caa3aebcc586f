package wire

import (
	"math/rand"
	"testing"

	"faust/internal/version"
)

// TestDecodeNeverPanicsOnCorruption flips random bytes in valid encodings
// and truncates at random points: Decode must return an error or a
// message, never panic — the codec faces a Byzantine server.
func TestDecodeNeverPanicsOnCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	rec := LSRecord{Seq: 1, Client: 0, Op: OpWrite, Reg: 0,
		ValueHash: []byte{1}, ChainHash: []byte{2}, Sig: []byte{3}}
	samples := []Message{
		&Submit{T: 1, Inv: Invocation{Client: 0, Op: OpWrite, Reg: 0, SubmitSig: []byte("s"), XHash: []byte("h")},
			Value: []byte("v")},
		&Submit{T: 2, Inv: Invocation{Client: 1, Op: OpRead, Reg: 0, SubmitSig: []byte("s")},
			Piggyback: &Commit{Ver: version.New(2), CommitSig: []byte("c")}},
		&Reply{IsRead: true, C: 0, CVer: ZeroSignedVersion(2), JVer: ZeroSignedVersion(2),
			Mem: MemEntry{T: 1, Value: []byte("v"), Op: OpWrite, Reg: 0, SubmitSig: []byte("d")},
			L:   []Invocation{{Client: 1, Op: OpRead, Reg: 0, SubmitSig: []byte("s")}},
			P:   []ProofEntry{{Hash: []byte("h0")}, {Hash: []byte("h1"), Sig: []byte("p")}}},
		&Commit{Ver: version.New(3), CommitSig: []byte("c")},
		&Probe{From: 1},
		&VersionMsg{From: 0, SV: ZeroSignedVersion(2)},
		&Failure{From: 1, HasEvidence: true, EvidenceA: ZeroSignedVersion(2), EvidenceB: ZeroSignedVersion(2)},
		&LSSubmit{Op: OpWrite, Reg: 0, Value: []byte("v"), HaveSeq: 3},
		&LSReply{Records: []LSRecord{rec}, Value: []byte("v")},
		&LSCommit{Record: rec},
	}
	for _, m := range samples {
		enc := Encode(m)
		// Round-trip sanity.
		if _, err := Decode(enc); err != nil {
			t.Fatalf("%T: valid encoding rejected: %v", m, err)
		}
		// Byte flips.
		for trial := 0; trial < 200; trial++ {
			corrupted := append([]byte(nil), enc...)
			corrupted[rng.Intn(len(corrupted))] ^= byte(1 + rng.Intn(255))
			_, _ = Decode(corrupted) // must not panic
		}
		// Truncations.
		for cut := 0; cut < len(enc); cut++ {
			_, _ = Decode(enc[:cut]) // must not panic
		}
		// Random garbage of the same length.
		for trial := 0; trial < 50; trial++ {
			garbage := make([]byte, len(enc))
			rng.Read(garbage)
			garbage[0] = enc[0] // keep a valid kind tag
			_, _ = Decode(garbage)
		}
	}
}

// TestDecodeLSTruncations exercises every truncation point of the
// lock-step messages (the LS decode paths).
func TestDecodeLSTruncations(t *testing.T) {
	rec := LSRecord{Seq: 9, Client: 1, Op: OpRead, Reg: 1,
		ValueHash: nil, ChainHash: []byte{7, 7}, Sig: []byte{8}}
	for _, m := range []Message{
		&LSSubmit{Op: OpRead, Reg: 1, HaveSeq: 2},
		&LSReply{Records: []LSRecord{rec, rec}, Value: nil},
		&LSCommit{Record: rec},
	} {
		enc := Encode(m)
		for cut := 1; cut < len(enc); cut++ {
			if _, err := Decode(enc[:cut]); err == nil {
				t.Fatalf("%T: truncation at %d accepted", m, cut)
			}
		}
	}
}

func TestLSRecordClone(t *testing.T) {
	rec := LSRecord{Seq: 1, Client: 0, Op: OpWrite, Reg: 0,
		ValueHash: []byte{1}, ChainHash: []byte{2}, Sig: []byte{3}}
	c := rec.Clone()
	c.ValueHash[0] = 9
	c.ChainHash[0] = 9
	c.Sig[0] = 9
	if rec.ValueHash[0] != 1 || rec.ChainHash[0] != 2 || rec.Sig[0] != 3 {
		t.Fatal("Clone shares memory")
	}
	nilRec := LSRecord{Seq: 2}
	if got := nilRec.Clone(); got.ValueHash != nil || got.ChainHash != nil || got.Sig != nil {
		t.Fatal("nil fields must stay nil")
	}
}

// TestDecodeRejectsHugeLSReply guards the allocation bound on the record
// vector.
func TestDecodeRejectsHugeLSReply(t *testing.T) {
	buf := []byte{byte(KindLSReply)}
	buf = appendU32(buf, 1<<30)
	if _, err := Decode(buf); err == nil {
		t.Fatal("huge record count accepted")
	}
}

func TestKindValuesDistinct(t *testing.T) {
	kinds := []Kind{KindSubmit, KindReply, KindCommit, KindProbe, KindVersion,
		KindFailure, KindLSSubmit, KindLSReply, KindLSCommit}
	seen := map[Kind]bool{}
	for _, k := range kinds {
		if k == 0 {
			t.Fatal("zero kind value")
		}
		if seen[k] {
			t.Fatalf("duplicate kind %d", k)
		}
		seen[k] = true
	}
}
