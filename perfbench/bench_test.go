package main

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"faust/internal/crypto"
	"faust/internal/lockstep"
	"faust/internal/store"
	"faust/internal/transport"
	"faust/internal/ustor"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{9, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9},
		{999, 0.9}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {100000, 0.9999},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if q := tailPercentile(c.n); q > 0 && beyond(c.n, q) < 10 {
			t.Errorf("tailPercentile(%d) = %v leaves only %d samples beyond", c.n, q, beyond(c.n, q))
		}
	}
	if pctName(0.999) != "p99.9" || pctName(0.5) != "p50" {
		t.Errorf("pctName: %s %s", pctName(0.999), pctName(0.5))
	}
}

func TestQuantileNearestRank(t *testing.T) {
	l := latencies{5, 1, 4, 2, 3}.sorted()
	if got := l.quantile(0.5); got != 3 {
		t.Errorf("median = %d, want 3", got)
	}
	if got := l.quantile(0.99); got != 5 {
		t.Errorf("p99 = %d, want 5", got)
	}
}

// write records an acknowledged write of v to obj.
func write(t *testing.T, h *history, obj string, v []byte) {
	t.Helper()
	tok, err := h.beginWrite(obj, v)
	if err != nil {
		t.Fatal(err)
	}
	h.endWrite(tok)
}

func TestCheckerRejectsStaleRead(t *testing.T) {
	h := newHistory()
	v1, v2 := []byte("c0-1|aaaa"), []byte("c0-2|bbbb")
	write(t, h, "r0", v1)
	beforeV2 := now()
	write(t, h, "r0", v2)
	afterV2 := now()
	if err := h.checkRead("r0", beforeV2, v1); err != nil {
		t.Errorf("a read concurrent with the second write may return the first: %v", err)
	}
	if err := h.checkRead("r0", afterV2, v2); err != nil {
		t.Errorf("fresh read rejected: %v", err)
	}
	if err := h.checkRead("r0", afterV2, v1); err == nil {
		t.Error("a read that began after the second write was acknowledged returned the first, and was accepted")
	}
}

func TestCheckerRejectsLostAndForeignWrites(t *testing.T) {
	h := newHistory()
	if err := h.checkRead("r0", now(), nil); err != nil {
		t.Errorf("empty read of a never-written register rejected: %v", err)
	}
	write(t, h, "r0", []byte("c0-1|aaaa"))
	write(t, h, "r1", []byte("c1-1|bbbb"))
	start := now()
	if err := h.checkRead("r0", start, nil); err == nil {
		t.Error("an acknowledged write was lost, and the empty read was accepted")
	}
	if err := h.checkRead("r0", start, []byte("c1-1|bbbb")); err == nil {
		t.Error("a read returned another register's value, and was accepted")
	}
	if err := h.checkRead("r0", start, []byte("c0-1|aaaX")); err == nil {
		t.Error("a read returned corrupted contents, and was accepted")
	}
	if err := h.checkRead("r0", start, []byte("c0-9|never")); err == nil {
		t.Error("a read returned a value nobody wrote, and was accepted")
	}
	if _, err := h.beginWrite("r0", []byte("c0-1|aaaa")); err == nil {
		t.Error("a value written twice was accepted; reads could not be told apart")
	}
}

func TestSameSeedSameOpStreams(t *testing.T) {
	for _, seed := range []int64{1, 42} {
		a, b := faustMemOps(seed), faustMemOps(seed)
		for i := 0; i < fmClients; i++ {
			for k := 0; k < 500; k++ {
				if x, y := a.Stream(i).Next(), b.Stream(i).Next(); !reflect.DeepEqual(x, y) {
					t.Fatalf("faust-mem seed %d client %d op %d: %+v != %+v", seed, i, k, x, y)
				}
			}
		}
		c, d := regTCPOps(seed), regTCPOps(seed)
		ka, kb := kvOps(seed), kvOps(seed)
		for i := 0; i < rtClients; i++ {
			for k := 0; k < 500; k++ {
				if x, y := c.Stream(i).Next(), d.Stream(i).Next(); !reflect.DeepEqual(x, y) {
					t.Fatalf("reg-tcp-wal seed %d client %d op %d differs", seed, i, k)
				}
				if x, y := ka.Stream(i).Next(), kb.Stream(i).Next(); !reflect.DeepEqual(x, y) {
					t.Fatalf("kv-wal seed %d client %d op %d differs", seed, i, k)
				}
			}
		}
	}
	x, y := kvOps(1).Stream(0), kvOps(2).Stream(0)
	same := true
	for k := 0; k < 100; k++ {
		if !reflect.DeepEqual(x.Next(), y.Next()) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced the same kv stream")
	}
}

func optionalInterfaces(v any) [4]bool {
	_, batch := v.(transport.BatchCore)
	_, generic := v.(transport.GenericCore)
	_, sized := v.(sizedCore)
	_, blobCtx := v.(transport.BlobStoreCtx)
	return [4]bool{batch, generic, sized, blobCtx}
}

func newPersistent(t *testing.T, n int) *store.Persistent {
	t.Helper()
	ps, err := store.Open(ustor.NewServer(n), store.NewMemBackend(), store.Options{SnapshotEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

func TestWrappersKeepExactlyTheTargetsOptionalInterfaces(t *testing.T) {
	tr := newTracer()
	for _, core := range []transport.ServerCore{ustor.NewServer(3), newPersistent(t, 3)} {
		w, err := wrapOuterCore(tr, core)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := optionalInterfaces(w), optionalInterfaces(core); got != want {
			t.Errorf("wrapped %T exposes %v, target %v (batch, generic, sized, blobCtx)", core, got, want)
		}
		if coreN(w) != coreN(core) {
			t.Errorf("wrapped %T reports N=%d, target %d", core, coreN(w), coreN(core))
		}
	}
	if _, err := wrapOuterCore(tr, lockstep.NewServer(2)); err == nil {
		t.Error("a GenericCore was wrapped although server pushes are not forwarded")
	}
	fb, err := store.OpenFileBlobs(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	for _, bs := range []transport.BlobStore{fb, ctxBlobs{transport.NewMemBlobs()}} {
		if got, want := optionalInterfaces(wrapBlobStore(tr, bs)), optionalInterfaces(bs); got != want {
			t.Errorf("wrapped %T exposes %v, target %v", bs, got, want)
		}
	}
}

// ctxBlobs is a blob store that takes the request context.
type ctxBlobs struct{ *transport.MemBlobs }

func (c ctxBlobs) PutBlobCtx(_ context.Context, hash, data []byte) error {
	return c.PutBlob(hash, data)
}
func (c ctxBlobs) GetBlobCtx(_ context.Context, hash []byte) ([]byte, error) {
	return c.GetBlob(hash)
}

// A wrapped store.Persistent must stay on the dispatcher's group-commit
// path: concurrent clients queue SUBMITs together, the dispatcher drains
// them as one batch, and the wrapper sees HandleSubmitBuffered plus one
// FlushBatch per batch.
func TestWrappedPersistentReceivesFlushBatch(t *testing.T) {
	const n, ops = 8, 60
	tr := newTracer()
	tr.on.Store(true)
	core, err := wrapOuterCore(tr, newPersistent(t, n))
	if err != nil {
		t.Fatal(err)
	}
	nw := transport.NewNetwork(n, core)
	defer nw.Stop()
	ring, signers := crypto.NewTestKeyring(n, 7)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		c := ustor.NewClient(i, ring, signers[i], nw.ClientLink(i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < ops; k++ {
				if _, err := c.WriteX(context.Background(), []byte("v")); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	flushes, buffered := tr.c(cSrvFlush).n.Load(), tr.c(cSrvBuffered).n.Load()
	if flushes == 0 || buffered == 0 {
		t.Fatalf("wrapped Persistent saw %d FlushBatch and %d buffered SUBMITs; the batch path was bypassed", flushes, buffered)
	}
	if got := tr.c(cSrvSubmit).n.Load() + buffered; got != n*ops {
		t.Errorf("server saw %d SUBMITs, want %d", got, n*ops)
	}
}

func TestBudgetPartitionsTheOpExactly(t *testing.T) {
	b := map[string]int64{}
	partition(0, 100, []span{
		{name: "transport.send", start: 10, end: 20},
		{name: "transport.recv", start: 20, end: 90},
		{name: "transport.queue_wait", start: 10, end: 40},
		{name: "ustor.apply", start: 40, end: 50},
		{name: "transport.reply", start: 50, end: 80},
		{name: "ustor.apply", start: 150, end: 160}, // outside the op: ignored
	}, "ustor.client_self", b)
	want := map[string]int64{
		"ustor.client_self":    20, // [0,10) and [90,100)
		"transport.send":       10,
		"transport.queue_wait": 20,
		"ustor.apply":          10,
		"transport.reply":      30,
		labelUnattributed:      10, // [80,90): waiting, nothing explains it
	}
	if !reflect.DeepEqual(b, want) {
		t.Errorf("budget = %v, want %v", b, want)
	}
}
