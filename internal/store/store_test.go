package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"faust/internal/crypto"
	"faust/internal/transport"
	"faust/internal/ustor"
	"faust/internal/version"
	"faust/internal/wire"
)

// submitRecord builds a well-formed SUBMIT record for tests.
func submitRecord(from int, t int64) Record {
	return Record{From: from, Msg: &wire.Submit{
		T:     t,
		Inv:   wire.Invocation{Client: from, Op: wire.OpWrite, Reg: from, SubmitSig: []byte("sig"), XHash: bytes.Repeat([]byte{0x5a}, 32)},
		Value: []byte(fmt.Sprintf("v%d", t)),
	}}
}

func TestRecordCodecRoundTrip(t *testing.T) {
	recs := []Record{
		submitRecord(2, 7),
		{From: 1, Msg: &wire.Commit{Ver: version.New(3), CommitSig: []byte("c")}},
	}
	for i, rec := range recs {
		enc, err := EncodeRecord(rec)
		if err != nil {
			t.Fatalf("record %d: encode: %v", i, err)
		}
		got, err := DecodeRecord(enc)
		if err != nil {
			t.Fatalf("record %d: decode: %v", i, err)
		}
		if got.From != rec.From {
			t.Fatalf("record %d: from = %d, want %d", i, got.From, rec.From)
		}
		if !bytes.Equal(wire.Encode(got.Msg), wire.Encode(rec.Msg)) {
			t.Fatalf("record %d: message did not round-trip", i)
		}
	}
}

func TestRecordCodecRejectsNonStateMessages(t *testing.T) {
	if _, err := EncodeRecord(Record{From: 0, Msg: &wire.Probe{From: 0}}); err == nil {
		t.Fatal("PROBE accepted as a WAL record")
	}
	probe := append([]byte{0, 0, 0, 0}, wire.Encode(&wire.Probe{From: 0})...)
	if _, err := DecodeRecord(probe); err == nil {
		t.Fatal("encoded PROBE decoded as a WAL record")
	}
	if _, err := DecodeRecord([]byte{1, 2}); err == nil {
		t.Fatal("short record accepted")
	}
}

// backendContract runs the Backend semantics every implementation must
// satisfy: append/load round trip and snapshot truncation.
func backendContract(t *testing.T, reopen func(t *testing.T) Backend) {
	t.Helper()
	b := reopen(t)
	if snap, tail, err := b.Load(); err != nil || snap != nil || len(tail) != 0 {
		t.Fatalf("fresh backend: Load = (%v, %d records, %v)", snap, len(tail), err)
	}
	for i := 0; i < 5; i++ {
		if err := b.Append(submitRecord(i%2, int64(i))); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	b = reopen(t)
	snap, tail, err := b.Load()
	if err != nil {
		t.Fatalf("reload: %v", err)
	}
	if snap != nil || len(tail) != 5 {
		t.Fatalf("after 5 appends: snap=%v, %d records", snap, len(tail))
	}
	for i, rec := range tail {
		if rec.Msg.(*wire.Submit).T != int64(i) {
			t.Fatalf("record %d out of order: T=%d", i, rec.Msg.(*wire.Submit).T)
		}
	}
	state := []byte("the-state")
	if err := b.WriteSnapshot(state); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if err := b.Append(submitRecord(0, 99)); err != nil {
		t.Fatalf("post-snapshot append: %v", err)
	}
	_ = b.Close()

	b = reopen(t)
	snap, tail, err = b.Load()
	if err != nil {
		t.Fatalf("reload after snapshot: %v", err)
	}
	if !bytes.Equal(snap, state) {
		t.Fatalf("snapshot = %q, want %q", snap, state)
	}
	if len(tail) != 1 || tail[0].Msg.(*wire.Submit).T != 99 {
		t.Fatalf("tail after snapshot: %d records", len(tail))
	}
	_ = b.Close()
}

func TestMemBackendContract(t *testing.T) {
	b := NewMemBackend()
	// The same MemBackend survives "reopening" — that is its purpose.
	backendContract(t, func(t *testing.T) Backend { return b })
}

// TestPersistentRecoversExactState drives a real USTOR cluster through a
// persistent server, simulates a restart by handing the same MemBackend to
// a fresh server, and requires bit-identical state.
func TestPersistentRecoversExactState(t *testing.T) {
	const n = 3
	ring, signers := crypto.NewTestKeyring(n, 51)
	backend := NewMemBackend()
	ps, err := Open(ustor.NewServer(n), backend, Options{SnapshotEvery: 7})
	if err != nil {
		t.Fatal(err)
	}
	nw := transport.NewNetwork(n, ps)
	clients := make([]*ustor.Client, n)
	for i := range clients {
		clients[i] = ustor.NewClient(i, ring, signers[i], nw.ClientLink(i))
	}
	for round := 0; round < 4; round++ {
		for i, c := range clients {
			if err := c.Write([]byte(fmt.Sprintf("r%d-c%d", round, i))); err != nil {
				t.Fatalf("write: %v", err)
			}
			if _, err := c.Read((i + 1) % n); err != nil {
				t.Fatalf("read: %v", err)
			}
		}
	}
	nw.Stop() // quiesce: all handler calls done
	want := ps.ExportState()

	ps2, err := Open(ustor.NewServer(n), backend, Options{})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if got := ps2.ExportState(); !bytes.Equal(got, want) {
		t.Fatal("recovered state differs from pre-restart state")
	}
	fromSnap, replayed := ps2.Recovered()
	if !fromSnap {
		t.Fatal("expected recovery from a snapshot (SnapshotEvery=7, 24 ops)")
	}
	if replayed == 0 {
		t.Log("note: recovery replayed no WAL records (snapshot happened to be last)")
	}

	// The recovered server must also serve: clients rebind and continue.
	nw2 := transport.NewNetwork(n, ps2)
	defer nw2.Stop()
	for i, c := range clients {
		c.Rebind(nw2.ClientLink(i))
	}
	for i, c := range clients {
		if err := c.Write([]byte(fmt.Sprintf("post-%d", i))); err != nil {
			t.Fatalf("post-recovery write by %d: %v", i, err)
		}
	}
	for i, c := range clients {
		if failed, reason := c.Failed(); failed {
			t.Fatalf("client %d failed against recovered server: %v", i, reason)
		}
	}
}

// TestGroupCommitPersistentClusterRecovery drives a real cluster through a
// fsync'd FileBackend, simulates a crash (no Close — the segment
// keeps its preallocated padding), recovers into a fresh server and
// requires bit-identical state plus failure-free continued operation by
// the rebound clients.
func TestGroupCommitPersistentClusterRecovery(t *testing.T) {
	const n = 3
	dir := t.TempDir()
	ring, signers := crypto.NewTestKeyring(n, 52)
	backend, err := OpenFile(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := Open(ustor.NewServer(n), backend, Options{SnapshotEvery: 9})
	if err != nil {
		t.Fatal(err)
	}
	nw := transport.NewNetwork(n, ps)
	clients := make([]*ustor.Client, n)
	for i := range clients {
		clients[i] = ustor.NewClient(i, ring, signers[i], nw.ClientLink(i))
	}
	for round := 0; round < 4; round++ {
		for i, c := range clients {
			if err := c.Write([]byte(fmt.Sprintf("r%d-c%d", round, i))); err != nil {
				t.Fatalf("write: %v", err)
			}
			if _, err := c.Read((i + 1) % n); err != nil {
				t.Fatalf("read: %v", err)
			}
		}
	}
	// Quiesce: all handler calls are done, and every batch, including the
	// one that applied the trailing COMMITs, has flushed — so recovery
	// must be bit-exact without any explicit Flush.
	nw.Stop()
	want := ps.ExportState()

	// Crash: abandon ps/backend without Close and recover from disk.
	backend2, err := OpenFile(dir, true)
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	ps2, err := Open(ustor.NewServer(n), backend2, Options{SnapshotEvery: 9})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer ps2.Close()
	if got := ps2.ExportState(); !bytes.Equal(got, want) {
		t.Fatal("recovered state differs from pre-crash state")
	}

	nw2 := transport.NewNetwork(n, ps2)
	defer nw2.Stop()
	for i, c := range clients {
		c.Rebind(nw2.ClientLink(i))
	}
	for i, c := range clients {
		if err := c.Write([]byte(fmt.Sprintf("post-%d", i))); err != nil {
			t.Fatalf("post-recovery write by %d: %v", i, err)
		}
	}
	for i, c := range clients {
		if failed, reason := c.Failed(); failed {
			t.Fatalf("client %d failed against recovered server: %v", i, reason)
		}
	}
}

// crashImageBackend is a FileBackend that copies its directory into
// image at the first Flush completing after a COMMIT was appended: the
// data directory of a server that crashed right after that flush, taken
// without Close.
type crashImageBackend struct {
	*FileBackend
	image string

	mu     sync.Mutex
	armed  bool
	copied chan struct{}
	err    error
}

func (b *crashImageBackend) Append(rec Record) error {
	err := b.FileBackend.Append(rec)
	if _, ok := rec.Msg.(*wire.Commit); ok && err == nil {
		b.mu.Lock()
		b.armed = true
		b.mu.Unlock()
	}
	return err
}

func (b *crashImageBackend) Flush() error {
	err := b.FileBackend.Flush()
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.armed && b.copied != nil {
		b.err = copyDir(b.Dir(), b.image)
		close(b.copied)
		b.copied = nil
	}
	return err
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// TestLoneCommitDurableAtBatchEnd crashes an fsync'd server right after
// the flush that follows a client's COMMIT — the COMMIT travels alone,
// with no later SUBMIT to flush it — and recovers a fresh server from that
// image. An honest crash after the COMMIT's batch ended must not look
// like a rollback: the rebound client's next write and read succeed with
// no fail notification and no DetectionError.
func TestLoneCommitDurableAtBatchEnd(t *testing.T) {
	const n = 2
	dir, image := t.TempDir(), t.TempDir()
	ring, signers := crypto.NewTestKeyring(n, 53)
	fb, err := OpenFile(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fb.Close() })
	copied := make(chan struct{})
	backend := &crashImageBackend{FileBackend: fb, image: image, copied: copied}
	ps, err := Open(ustor.NewServer(n), backend, Options{})
	if err != nil {
		t.Fatal(err)
	}
	nw := transport.NewNetwork(n, ps)
	var fails atomic.Int32
	client := ustor.NewClient(0, ring, signers[0], nw.ClientLink(0),
		ustor.WithFailHandler(func(error) { fails.Add(1) }))
	if err := client.Write([]byte("before-crash")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-copied:
	case <-time.After(5 * time.Second):
		t.Fatal("no WAL flush followed the lone COMMIT: it exists only in memory")
	}
	nw.Stop()
	backend.mu.Lock()
	err = backend.err
	backend.mu.Unlock()
	if err != nil {
		t.Fatalf("copying the crash image: %v", err)
	}

	fb2, err := OpenFile(image, true)
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	t.Cleanup(func() { _ = fb2.Close() })
	ps2, err := Open(ustor.NewServer(n), fb2, Options{})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	nw2 := transport.NewNetwork(n, ps2)
	defer nw2.Stop()
	client.Rebind(nw2.ClientLink(0))

	var det *ustor.DetectionError
	if err := client.Write([]byte("after-crash")); err != nil {
		if errors.As(err, &det) {
			t.Fatalf("honest crash reported as a faulty server: %v", err)
		}
		t.Fatalf("post-recovery write: %v", err)
	}
	v, err := client.Read(0)
	if err != nil {
		if errors.As(err, &det) {
			t.Fatalf("honest crash reported as a faulty server: %v", err)
		}
		t.Fatalf("post-recovery read: %v", err)
	}
	if string(v) != "after-crash" {
		t.Fatalf("read %q, want %q", v, "after-crash")
	}
	if got := fails.Load(); got != 0 {
		t.Fatalf("%d fail notifications against an honestly recovered server", got)
	}
}

// TestPersistentStopsServingOnAppendFailure checks the fail-stop contract:
// a server that cannot persist must fall silent, not serve.
func TestPersistentStopsServingOnAppendFailure(t *testing.T) {
	ps, err := Open(ustor.NewServer(2), failingBackend{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r := ps.HandleSubmit(context.Background(), 0, submitRecord(0, 1).Msg.(*wire.Submit)); r != nil {
		t.Fatal("server replied to an operation it could not log")
	}
	if ps.Err() == nil {
		t.Fatal("append failure not recorded")
	}
}

type failingBackend struct{}

func (failingBackend) Load() ([]byte, []Record, error) { return nil, nil, nil }
func (failingBackend) Append(Record) error             { return fmt.Errorf("disk full") }
func (failingBackend) Flush() error                    { return fmt.Errorf("disk full") }
func (failingBackend) WriteSnapshot([]byte) error      { return fmt.Errorf("disk full") }
func (failingBackend) Close() error                    { return nil }
