package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"faust/internal/ustor"
	"faust/internal/version"
	"faust/internal/wire"
)

// Two older formats must be refused at recovery with an error — not a
// panic, not read as something else and not dropped as a torn tail:
//
//   - before the PROOF-signature was folded into the COMMIT-signature,
//     every COMMIT (and every piggybacked one) ended with psi, and a
//     snapshot ended with the array P;
//   - before the DATA-signature was folded into the SUBMIT-signature,
//     every SUBMIT carried delta after its value, invocation tuples had
//     no value hash, and MEM entries were (t, value, delta).

// appendLegacyBytes appends a byte string in the codec's u32-length form.
func appendLegacyBytes(buf, b []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(b)))
	return append(buf, b...)
}

// legacyRecord encodes rec in the old format: the new encoding followed by
// the trailing PROOF-signature of its COMMIT.
func legacyRecord(t *testing.T, rec Record) []byte {
	t.Helper()
	enc, err := EncodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	return appendLegacyBytes(enc, bytes.Repeat([]byte{0x44}, 64))
}

// appendLegacyTuple appends an invocation tuple without a value hash.
func appendLegacyTuple(buf []byte, client, reg uint32, op wire.OpCode) []byte {
	buf = binary.BigEndian.AppendUint32(buf, client)
	buf = append(buf, byte(op))
	buf = binary.BigEndian.AppendUint32(buf, reg)
	buf = appendLegacyBytes(buf, bytes.Repeat([]byte{0x51}, 64))
	return append(buf, 0) // no trace context
}

// legacyDataSubmitRecord hand-builds a WAL record of client from's write
// at timestamp t in the format that carried the DATA-signature.
func legacyDataSubmitRecord(from int, t int64) []byte {
	buf := binary.BigEndian.AppendUint32(nil, uint32(from))
	buf = append(buf, byte(wire.KindSubmit))
	buf = binary.BigEndian.AppendUint64(buf, uint64(t))
	buf = appendLegacyTuple(buf, uint32(from), uint32(from), wire.OpWrite)
	buf = appendLegacyBytes(buf, []byte(fmt.Sprintf("v%d", t)))
	buf = appendLegacyBytes(buf, bytes.Repeat([]byte{0x44}, 64)) // delta
	return append(buf, 0)                                        // no piggyback
}

// legacyDataState hand-builds the two-client snapshot of legacyState in
// the format that carried the DATA-signature: MEM[0] holds client 0's
// write with its delta, SVER[0] its commit, and L one pending read of
// client 1.
func legacyDataState() []byte {
	buf := binary.BigEndian.AppendUint32(nil, 2) // n
	buf = binary.BigEndian.AppendUint32(buf, 0)  // c
	buf = binary.BigEndian.AppendUint64(buf, 1)  // MEM[0]
	buf = appendLegacyBytes(buf, []byte("v1"))
	buf = appendLegacyBytes(buf, bytes.Repeat([]byte{0x44}, 64))
	buf = binary.BigEndian.AppendUint64(buf, 0) // MEM[1]: initial
	buf = binary.BigEndian.AppendUint32(buf, ^uint32(0))
	buf = binary.BigEndian.AppendUint32(buf, ^uint32(0))
	for k, v := range []version.Version{legacyCommitVersion(), version.New(2)} {
		committer, sig := uint32(0), bytes.Repeat([]byte{0x33}, 64)
		if k == 1 {
			committer, sig = ^uint32(0), nil
		}
		buf = binary.BigEndian.AppendUint32(buf, committer)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(v.V)))
		for _, ts := range v.V {
			buf = binary.BigEndian.AppendUint64(buf, uint64(ts))
		}
		for _, d := range v.M {
			if d == nil {
				buf = binary.BigEndian.AppendUint32(buf, ^uint32(0))
			} else {
				buf = appendLegacyBytes(buf, d)
			}
		}
		if sig == nil {
			buf = binary.BigEndian.AppendUint32(buf, ^uint32(0))
		} else {
			buf = appendLegacyBytes(buf, sig)
		}
	}
	buf = binary.BigEndian.AppendUint32(buf, 1) // len(L)
	return appendLegacyTuple(buf, 1, 0, wire.OpRead)
}

func legacyCommitVersion() version.Version {
	v := version.New(2)
	v.V[0] = 1
	v.M[0] = bytes.Repeat([]byte{0xab}, 32)
	return v
}

// writeWAL writes a generation-0 WAL segment holding the given record
// payloads, each framed with its length and CRC.
func writeWAL(t *testing.T, dir string, payloads ...[]byte) {
	t.Helper()
	buf := []byte(walMagic)
	for _, p := range payloads {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(p)))
		buf = binary.BigEndian.AppendUint32(buf, crc32.Checksum(p, crcTable))
		buf = append(buf, p...)
	}
	if err := os.WriteFile(filepath.Join(dir, walName(0)), buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// legacyState exports a two-client server state that has seen a write and
// its COMMIT, then appends P[0..1] the way the old snapshot format did.
func legacyState(t *testing.T) (current, legacy []byte) {
	t.Helper()
	srv := ustor.NewServer(2)
	srv.HandleSubmit(context.Background(), 0, submitRecord(0, 1).Msg.(*wire.Submit))
	srv.HandleCommit(context.Background(), 0, &wire.Commit{Ver: legacyCommitVersion(), CommitSig: bytes.Repeat([]byte{0x33}, 64)})
	current = srv.ExportState()
	legacy = appendLegacyBytes(append([]byte(nil), current...), bytes.Repeat([]byte{0x44}, 64))
	legacy = binary.BigEndian.AppendUint32(legacy, ^uint32(0)) // P[1] = bottom
	return current, legacy
}

func TestLegacyWALRecordRefused(t *testing.T) {
	commit := Record{From: 0, Msg: &wire.Commit{Ver: legacyCommitVersion(), CommitSig: bytes.Repeat([]byte{0x33}, 64)}}
	piggy := submitRecord(1, 1)
	piggy.Msg.(*wire.Submit).Piggyback = commit.Msg.(*wire.Commit)
	first, err := EncodeRecord(submitRecord(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]struct {
		rec Record // the current-format control
		old []byte
	}{
		"commit":                     {commit, legacyRecord(t, commit)},
		"piggybacked commit":         {piggy, legacyRecord(t, piggy)},
		"submit with DATA-signature": {submitRecord(1, 1), legacyDataSubmitRecord(1, 1)},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			rec, old := tc.rec, tc.old
			if _, err := DecodeRecord(old); err == nil {
				t.Fatal("DecodeRecord accepted a record in the old format")
			}

			// File backend: the intact old record follows a valid one and is
			// neither replayed nor dropped as a torn tail.
			dir := t.TempDir()
			writeWAL(t, dir, first, old)
			if b, err := OpenFile(dir, false); err == nil {
				_ = b.Close()
				t.Fatal("OpenFile accepted a WAL holding an old-format record")
			}
			if _, err := RollbackWAL(dir, 1); err == nil {
				t.Fatal("RollbackWAL cut a WAL holding an old-format record")
			}
			if info, err := os.Stat(filepath.Join(dir, walName(0))); err != nil ||
				info.Size() != int64(len(walMagic)+2*frameHeader+len(first)+len(old)) {
				t.Fatalf("refused WAL was modified: %v, %v", info, err)
			}

			// Memory backend: Load refuses it, and so does Open.
			mem := NewMemBackend()
			mem.tail = [][]byte{first, old}
			if _, _, err := mem.Load(); err == nil {
				t.Fatal("MemBackend.Load accepted an old-format record")
			}
			if _, err := Open(ustor.NewServer(2), mem, Options{}); err == nil {
				t.Fatal("Open accepted an old-format record")
			}

			// Control: the same record in the current format recovers.
			cur, err := EncodeRecord(rec)
			if err != nil {
				t.Fatal(err)
			}
			dir = t.TempDir()
			writeWAL(t, dir, first, cur)
			if _, tail := loadTail(t, dir); len(tail) != 2 {
				t.Fatalf("current-format WAL recovered %d records, want 2", len(tail))
			}
		})
	}
}

func TestLegacySnapshotRefused(t *testing.T) {
	current, legacy := legacyState(t)

	for _, old := range [][]byte{legacy, legacyDataState()} {
		// File backend: the old snapshot is intact, so the backend hands
		// it out, and restoring it fails.
		dir := t.TempDir()
		if err := writeSnapshotFile(filepath.Join(dir, snapName(1)), old, false); err != nil {
			t.Fatal(err)
		}
		writeWALGen(t, dir, 1)
		b, err := OpenFile(dir, false)
		if err != nil {
			t.Fatal(err)
		}
		if p, err := Open(ustor.NewServer(2), b, Options{}); err == nil {
			_ = p.Close()
			t.Fatal("Open restored an old-format snapshot")
		}
		_ = b.Close()

		// Memory backend.
		mem := NewMemBackend()
		if err := mem.WriteSnapshot(old); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(ustor.NewServer(2), mem, Options{}); err == nil {
			t.Fatal("Open restored an old-format snapshot from memory")
		}
	}

	// Control: the current encoding of the same state restores, and the
	// derived proof array and MEM[0]'s signed invocation come back with it.
	mem := NewMemBackend()
	if err := mem.WriteSnapshot(current); err != nil {
		t.Fatal(err)
	}
	srv := ustor.NewServer(2)
	if _, err := Open(srv, mem, Options{}); err != nil {
		t.Fatalf("current-format snapshot refused: %v", err)
	}
	reply := srv.HandleSubmit(context.Background(), 1, submitRecord(1, 1).Msg.(*wire.Submit))
	if !bytes.Equal(reply.P[0].Hash, wire.VersionHash(legacyCommitVersion())) || len(reply.P[0].Sig) != 64 {
		t.Fatalf("restored proof entry = %+v, want the hash and signature of client 0's commit", reply.P[0])
	}
	read := submitRecord(1, 2).Msg.(*wire.Submit)
	read.Inv.Op, read.Inv.Reg, read.Value = wire.OpRead, 0, nil
	reply = srv.HandleSubmit(context.Background(), 1, read)
	if m := reply.Mem; m.T != 1 || string(m.Value) != "v1" || m.Op != wire.OpWrite || m.Reg != 0 || string(m.SubmitSig) != "sig" {
		t.Fatalf("restored MEM[0] = %+v, want client 0's write at t=1 with its invocation", m)
	}
}

// writeWALGen writes an empty WAL segment for generation gen.
func writeWALGen(t *testing.T, dir string, gen uint64) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, walName(gen)), []byte(walMagic), 0o644); err != nil {
		t.Fatal(err)
	}
}
