package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"faust/internal/crypto"
	"faust/internal/kv"
	"faust/internal/transport"
	"faust/internal/ustor"
	"faust/internal/workload"
)

// kv-wal: two kv.Stores over the memory Network (no sockets) against the
// durable server (durable.go), with the in-memory blob store
// transport.MemBlobs:
// writing one file per blob on the shared disk made put latency vary by
// more than 2x between runs. Blobs are never garbage-collected, so the
// blob store — and the process's memory — grows with every put. Setup
// prefills each namespace with 4096 keys x 4 KiB through PutBatch —
// 32 MiB in all, four times one store's chunk cache — so the working set
// exceeds a program cache. 80% reads, half of them cross-namespace
// GetFrom, 20% puts; Zipf(1.1) keys.
const (
	kvClients    = 2
	kvKeys       = 4096
	kvValueSize  = 4 << 10
	kvChunkCache = 8 << 20 // per store
	kvReadFrac   = 0.8
	kvCrossFrac  = 0.5
	kvZipf       = 1.1
	kvPrefillBat = 256 // items per PutBatch commit during prefill
)

type kvWAL struct {
	e       *env
	d       *durable
	nw      *transport.Network
	regs    []*ustor.Client
	stores  []*kv.Store
	streams []*workload.KVStream
	fails   failures
	acked   atomic.Int64

	stats0, stats1 []kv.Stats // at the measured window's start and end
}

func kvObj(owner int, key string) string { return fmt.Sprintf("kv%d/%s", owner, key) }

// kvOps generates kv-wal's op streams, one per client; the prefill draws
// its values from the same streams.
func kvOps(seed int64) *workload.KVWorkload {
	return workload.NewKV(kvClients, workload.KVConfig{Keys: kvKeys, ValueSize: kvValueSize, ReadFraction: kvReadFrac,
		CrossReadFraction: kvCrossFrac, ZipfS: kvZipf, Seed: seed})
}

func setupKVWAL(e *env) (instance, error) {
	d, err := openDurable(e.tr, kvClients)
	if err != nil {
		return nil, err
	}
	var blobs transport.BlobStore = transport.NewMemBlobs()
	if e.tr != nil {
		blobs = wrapBlobStore(e.tr, blobs)
	}
	k := &kvWAL{e: e, d: d, nw: transport.NewNetwork(kvClients, d.core, transport.WithBlobStore(blobs))}
	ring, signers := crypto.NewTestKeyring(kvClients, e.seed)
	wl := kvOps(e.seed)
	for i := 0; i < kvClients; i++ {
		var link transport.Link = k.nw.ClientLink(i)
		if e.tr != nil {
			link = &linkWrap{tr: e.tr, inner: link, client: int32(i)}
		}
		uc := ustor.NewClient(i, ring, signers[i], link, ustor.WithFailHandler(k.fails.add))
		var reg kv.Register = uc
		ch, err := k.nw.BlobChannel()
		if err != nil {
			k.close()
			return nil, err
		}
		if e.tr != nil {
			reg = &registerWrap{tr: e.tr, inner: uc, client: int32(i)}
			ch = &blobChanWrap{tr: e.tr, inner: ch, client: int32(i)}
		}
		st, err := kv.Open(reg, ch, kv.WithChunkCacheBudget(kvChunkCache))
		if err != nil {
			k.close()
			return nil, err
		}
		k.regs = append(k.regs, uc)
		k.stores = append(k.stores, st)
		k.streams = append(k.streams, wl.Stream(i))
	}
	if err := k.prefill(); err != nil {
		k.close()
		return nil, fmt.Errorf("prefill: %w", err)
	}
	return k, nil
}

// prefill writes every key of both namespaces, one goroutine per store.
// Values are the stores' own generated puts, renamed to key-000000...
func (k *kvWAL) prefill() error {
	var wg sync.WaitGroup
	errs := make([]error, kvClients)
	for i := range k.stores {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for base := 0; base < kvKeys; base += kvPrefillBat {
				items := make([]kv.Item, 0, kvPrefillBat)
				toks := make([]writeToken, 0, kvPrefillBat)
				for key := base; key < base+kvPrefillBat && key < kvKeys; key++ {
					op := k.streams[i].NextPut()
					op.Key = workload.KeyName(key)
					tok, err := k.e.hist.beginWrite(kvObj(i, op.Key), op.Value)
					if err != nil {
						errs[i] = err
						return
					}
					items = append(items, kv.Item{Key: op.Key, Value: op.Value})
					toks = append(toks, tok)
				}
				if err := k.stores[i].PutBatch(context.Background(), items); err != nil {
					errs[i] = err
					return
				}
				for j, tok := range toks {
					k.e.hist.endWrite(tok)
					k.acked.Add(int64(len(items[j].Value)))
				}
			}
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (k *kvWAL) step(g int, l *lane) bool {
	st := k.stores[g]
	op := k.streams[g].Next()
	ctx := context.Background()
	var (
		val  []byte
		err  error
		kind opKind
		ot   opToken
	)
	switch op.Kind {
	case workload.KVPut:
		tok, werr := k.e.hist.beginWrite(kvObj(g, op.Key), op.Value)
		if werr != nil {
			l.violate(werr)
			return false
		}
		ot = l.begin(g)
		err = st.Put(ctx, op.Key, op.Value)
		l.end(ot, kPut, 0, err)
		if err != nil {
			return false
		}
		k.e.hist.endWrite(tok)
		k.acked.Add(int64(len(op.Value)))
		l.wroteBytes(ot, len(op.Value))
		return true
	case workload.KVGet:
		kind = kGet
		ot = l.begin(g)
		val, err = st.Get(ctx, op.Key)
	case workload.KVGetFrom:
		kind = kGetFrom
		ot = l.begin(g)
		val, err = st.GetFrom(ctx, op.Owner, op.Key)
	default:
		l.violate(fmt.Errorf("unexpected generated op %v", op.Kind))
		return false
	}
	if errors.Is(err, kv.ErrNotFound) {
		val, err = nil, nil // the checker decides whether absence is allowed
	}
	l.end(ot, kind, 0, err)
	if err != nil {
		return false
	}
	if err := k.e.hist.checkRead(kvObj(op.Owner, op.Key), ot.start, val); err != nil {
		l.violate(err)
	}
	return true
}

func (k *kvWAL) windowStart() { k.stats0 = k.snapshotStats() }
func (k *kvWAL) windowEnd()   { k.stats1 = k.snapshotStats() }

func (k *kvWAL) snapshotStats() []kv.Stats {
	out := make([]kv.Stats, len(k.stores))
	for i, st := range k.stores {
		out[i] = st.Stats()
	}
	return out
}

func (k *kvWAL) finish(res *result) error {
	errs := k.fails.all()
	for i, c := range k.regs {
		if failed, err := c.Failed(); failed {
			errs = append(errs, fmt.Errorf("client %d halted against an honest server: %v", i, err))
		}
	}
	var hits, fetches int64
	for i := range k.stats1 {
		a, b := k.stats0[i], k.stats1[i]
		hits += (b.ChunkCacheHits - a.ChunkCacheHits) + (b.NodeCacheHits - a.NodeCacheHits)
		fetches += b.BlobGets - a.BlobGets
	}
	if hits+fetches > 0 {
		res.cacheHitRatio = float64(hits) / float64(hits+fetches)
	}
	if err := k.d.quiesce(5 * time.Second); err != nil {
		errs = append(errs, err)
	}
	for _, st := range k.stores {
		res.storedBytes += st.Stats().BlobPutBytes // what the blob store holds
	}
	res.usrByte = k.acked.Load()
	k.close()
	return errors.Join(errs...)
}

func (k *kvWAL) close() { k.nw.Stop() }
