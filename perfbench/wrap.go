package main

import (
	"context"
	"encoding/binary"
	"fmt"

	"faust/internal/kv"
	"faust/internal/offline"
	"faust/internal/store"
	"faust/internal/transport"
	"faust/internal/ustor"
	"faust/internal/version"
	"faust/internal/wire"
)

// Wrappers around the public interfaces between layers, used only by the
// traced run. Each forwards to its target and, while the tracer is on,
// records a span and counts the call. A wrapper must expose exactly the
// optional interfaces its target has — the transports pick their dispatch
// path by type assertion (BatchCore, GenericCore, BlobStoreCtx, N()), so
// a wrapper that hid or added one would trace a different program.

// sizedCore is the optional group-size extension the TCP handshake and
// store.Persistent look for.
type sizedCore interface{ N() int }

func coreN(c any) int {
	if s, ok := c.(sizedCore); ok {
		return s.N()
	}
	return -1 // what both callers treat as "not sized"
}

// ustorWrap wraps the USTOR state machine, as the transport's core
// (outer, faust-mem) or as the core inside store.Persistent.
type ustorWrap struct {
	tr    *tracer
	inner *ustor.Server
	outer bool
}

var (
	_ transport.ServerCore = (*ustorWrap)(nil)
	_ store.Core           = (*ustorWrap)(nil)
)

func (w *ustorWrap) N() int { return w.inner.N() }

func (w *ustorWrap) HandleSubmit(ctx context.Context, from int, s *wire.Submit) *wire.Reply {
	if !w.tr.on.Load() {
		return w.inner.HandleSubmit(ctx, from, s)
	}
	k := opKey{int32(from), s.T}
	if w.outer {
		w.tr.setServing(k)
	}
	st := now()
	r := w.inner.HandleSubmit(ctx, from, s)
	en := now()
	w.tr.add(span{name: "ustor.apply", start: st, end: en, client: k.client, t: k.t})
	w.tr.count(cApply, en-st, 0)
	if w.outer {
		w.tr.count(cSrvSubmit, en-st, 0)
	}
	return r
}

func (w *ustorWrap) HandleCommit(ctx context.Context, from int, c *wire.Commit) {
	if !w.tr.on.Load() {
		w.inner.HandleCommit(ctx, from, c)
		return
	}
	k := opKey{int32(from), commitT(c, from)}
	if w.outer {
		w.tr.setServing(k)
	}
	st := now()
	w.inner.HandleCommit(ctx, from, c)
	en := now()
	w.tr.add(span{name: "ustor.commit", start: st, end: en, client: k.client, t: k.t})
	w.tr.count(cCommit, en-st, 0)
	if w.outer {
		w.tr.count(cSrvCommit, en-st, 0)
	}
}

func (w *ustorWrap) ExportState() []byte             { return w.inner.ExportState() }
func (w *ustorWrap) RestoreState(state []byte) error { return w.inner.RestoreState(state) }

// commitT is the timestamp of the operation a COMMIT completes.
func commitT(c *wire.Commit, from int) int64 {
	if from >= 0 && from < len(c.Ver.V) {
		return c.Ver.V[from]
	}
	return 0
}

// batchWrap wraps a batch-capable durable core (store.Persistent): the
// dispatcher keeps its group-apply path, HandleSubmitBuffered plus one
// FlushBatch per drained batch.
type batchWrap struct {
	tr    *tracer
	inner transport.BatchCore
}

var _ transport.BatchCore = (*batchWrap)(nil)

func (w *batchWrap) N() int { return coreN(w.inner) }

func (w *batchWrap) HandleSubmit(ctx context.Context, from int, s *wire.Submit) *wire.Reply {
	if !w.tr.on.Load() {
		return w.inner.HandleSubmit(ctx, from, s)
	}
	k := opKey{int32(from), s.T}
	w.tr.setServing(k)
	st := now()
	r := w.inner.HandleSubmit(ctx, from, s)
	en := now()
	w.tr.add(span{name: "store.persistent", start: st, end: en, client: k.client, t: k.t})
	w.tr.count(cSrvSubmit, en-st, 0)
	return r
}

func (w *batchWrap) HandleSubmitBuffered(ctx context.Context, from int, s *wire.Submit) *wire.Reply {
	if !w.tr.on.Load() {
		return w.inner.HandleSubmitBuffered(ctx, from, s)
	}
	k := opKey{int32(from), s.T}
	w.tr.setServing(k)
	st := now()
	r := w.inner.HandleSubmitBuffered(ctx, from, s)
	en := now()
	w.tr.addPending(k)
	w.tr.add(span{name: "store.persistent", start: st, end: en, client: k.client, t: k.t})
	w.tr.count(cSrvBuffered, en-st, 0)
	return r
}

func (w *batchWrap) FlushBatch() error {
	if !w.tr.on.Load() {
		return w.inner.FlushBatch()
	}
	pending := w.tr.takePending()
	w.tr.setServing(pending...)
	st := now()
	err := w.inner.FlushBatch()
	en := now()
	w.tr.recordServing("transport.batch_flush", st, en, 0)
	w.tr.count(cSrvFlush, en-st, int64(len(pending)))
	return err
}

func (w *batchWrap) HandleCommit(ctx context.Context, from int, c *wire.Commit) {
	if !w.tr.on.Load() {
		w.inner.HandleCommit(ctx, from, c)
		return
	}
	k := opKey{int32(from), commitT(c, from)}
	w.tr.setServing(k)
	st := now()
	w.inner.HandleCommit(ctx, from, c)
	en := now()
	w.tr.add(span{name: "store.persistent", start: st, end: en, client: k.client, t: k.t})
	w.tr.count(cSrvCommit, en-st, 0)
}

// wrapOuterCore wraps the core a transport dispatches to. It supports the
// two cores the workloads serve and refuses anything with server-push
// semantics (GenericCore), which no wrapper here forwards.
func wrapOuterCore(tr *tracer, core transport.ServerCore) (transport.ServerCore, error) {
	if _, ok := core.(transport.GenericCore); ok {
		return nil, fmt.Errorf("perfbench: cannot wrap %T: GenericCore is not forwarded", core)
	}
	switch c := core.(type) {
	case transport.BatchCore:
		return &batchWrap{tr: tr, inner: c}, nil
	case *ustor.Server:
		return &ustorWrap{tr: tr, inner: c, outer: true}, nil
	}
	return nil, fmt.Errorf("perfbench: no wrapper for core %T", core)
}

// backendWrap wraps the WAL backend under store.Persistent. Its calls
// come from the dispatcher goroutine, so the ops the server is serving
// name the operations they belong to.
type backendWrap struct {
	tr    *tracer
	inner store.Backend
}

var _ store.Backend = (*backendWrap)(nil)

func (w *backendWrap) Load() ([]byte, []store.Record, error) { return w.inner.Load() }
func (w *backendWrap) Close() error                          { return w.inner.Close() }

func (w *backendWrap) Append(rec store.Record) error {
	if !w.tr.on.Load() {
		return w.inner.Append(rec)
	}
	st := now()
	err := w.inner.Append(rec)
	en := now()
	n := int64(4 + wire.EncodedSize(rec.Msg)) // the record codec: u32 client + message
	w.tr.recordServing("store.wal_append", st, en, n)
	w.tr.count(cWALAppend, en-st, n)
	return err
}

func (w *backendWrap) Flush() error {
	if !w.tr.on.Load() {
		return w.inner.Flush()
	}
	st := now()
	err := w.inner.Flush()
	en := now()
	w.tr.recordServing("store.wal_flush", st, en, 0)
	w.tr.count(cWALFlush, en-st, 0)
	return err
}

func (w *backendWrap) WriteSnapshot(state []byte) error {
	if !w.tr.on.Load() {
		return w.inner.WriteSnapshot(state)
	}
	st := now()
	err := w.inner.WriteSnapshot(state)
	en := now()
	w.tr.recordServing("store.snapshot", st, en, int64(len(state)))
	w.tr.count(cSnapshot, en-st, int64(len(state)))
	return err
}

// hashKey condenses a blob hash into a non-zero join key.
func hashKey(h []byte) uint64 {
	var b [8]byte
	copy(b[:], h)
	return binary.BigEndian.Uint64(b[:]) | 1
}

// blobStoreWrap wraps the server's blob store.
type blobStoreWrap struct {
	tr    *tracer
	inner transport.BlobStore
}

func (w *blobStoreWrap) PutBlob(hash, data []byte) error {
	if !w.tr.on.Load() {
		return w.inner.PutBlob(hash, data)
	}
	st := now()
	err := w.inner.PutBlob(hash, data)
	en := now()
	w.tr.add(span{name: "store.blob_put", start: st, end: en, client: -1, hash: hashKey(hash), bytes: int64(len(data))})
	w.tr.count(cBlobPut, en-st, int64(len(data)))
	return err
}

func (w *blobStoreWrap) GetBlob(hash []byte) ([]byte, error) {
	if !w.tr.on.Load() {
		return w.inner.GetBlob(hash)
	}
	st := now()
	data, err := w.inner.GetBlob(hash)
	en := now()
	w.tr.add(span{name: "store.blob_get", start: st, end: en, client: -1, hash: hashKey(hash), bytes: int64(len(data))})
	w.tr.count(cBlobGet, en-st, int64(len(data)))
	return data, err
}

// blobStoreCtxWrap is blobStoreWrap for targets that take the request
// context too.
type blobStoreCtxWrap struct {
	*blobStoreWrap
	ctxInner transport.BlobStoreCtx
}

func (w *blobStoreCtxWrap) PutBlobCtx(ctx context.Context, hash, data []byte) error {
	if !w.tr.on.Load() {
		return w.ctxInner.PutBlobCtx(ctx, hash, data)
	}
	st := now()
	err := w.ctxInner.PutBlobCtx(ctx, hash, data)
	en := now()
	w.tr.add(span{name: "store.blob_put", start: st, end: en, client: -1, hash: hashKey(hash), bytes: int64(len(data))})
	w.tr.count(cBlobPut, en-st, int64(len(data)))
	return err
}

func (w *blobStoreCtxWrap) GetBlobCtx(ctx context.Context, hash []byte) ([]byte, error) {
	if !w.tr.on.Load() {
		return w.ctxInner.GetBlobCtx(ctx, hash)
	}
	st := now()
	data, err := w.ctxInner.GetBlobCtx(ctx, hash)
	en := now()
	w.tr.add(span{name: "store.blob_get", start: st, end: en, client: -1, hash: hashKey(hash), bytes: int64(len(data))})
	w.tr.count(cBlobGet, en-st, int64(len(data)))
	return data, err
}

func wrapBlobStore(tr *tracer, bs transport.BlobStore) transport.BlobStore {
	w := &blobStoreWrap{tr: tr, inner: bs}
	if c, ok := bs.(transport.BlobStoreCtx); ok {
		return &blobStoreCtxWrap{blobStoreWrap: w, ctxInner: c}
	}
	return w
}

// linkWrap wraps one client's link to the server. The ustor client runs
// one SUBMIT..COMMIT round at a time, so a REPLY belongs to the last
// SUBMIT sent.
type linkWrap struct {
	tr     *tracer
	inner  transport.Link
	client int32
	lastT  int64 // written and read only by the client's serialized op path
}

var _ transport.Link = (*linkWrap)(nil)

func (w *linkWrap) Send(m wire.Message) error {
	var t int64
	switch msg := m.(type) {
	case *wire.Submit:
		t = msg.T
		w.lastT = t
	case *wire.Commit:
		t = commitT(msg, int(w.client))
	}
	if !w.tr.on.Load() {
		return w.inner.Send(m)
	}
	st := now()
	err := w.inner.Send(m)
	en := now()
	w.tr.add(span{name: "transport.send", start: st, end: en, client: w.client, t: t, bytes: int64(wire.EncodedSize(m))})
	return err
}

func (w *linkWrap) Recv() (wire.Message, error) {
	if !w.tr.on.Load() {
		return w.inner.Recv()
	}
	st := now()
	m, err := w.inner.Recv()
	en := now()
	s := span{name: "transport.recv", start: st, end: en, client: w.client, t: w.lastT}
	if err == nil {
		s.bytes = int64(wire.EncodedSize(m))
		_, s.isReply = m.(*wire.Reply)
	}
	w.tr.add(s)
	return m, err
}

func (w *linkWrap) Close() error { return w.inner.Close() }

// registerWrap wraps the register a kv.Store commits its root through.
type registerWrap struct {
	tr     *tracer
	inner  kv.Register
	client int32
}

var _ kv.Register = (*registerWrap)(nil)

func (w *registerWrap) ID() int                       { return w.inner.ID() }
func (w *registerWrap) N() int                        { return w.inner.N() }
func (w *registerWrap) Version() version.Version      { return w.inner.Version() }
func (w *registerWrap) ObservedTimestamp(j int) int64 { return w.inner.ObservedTimestamp(j) }

func (w *registerWrap) WriteX(ctx context.Context, x []byte) (ustor.OpResult, error) {
	if !w.tr.on.Load() {
		return w.inner.WriteX(ctx, x)
	}
	st := now()
	res, err := w.inner.WriteX(ctx, x)
	en := now()
	w.tr.add(span{name: "kv.register", start: st, end: en, seq: w.tr.cur[w.client].Load(), client: w.client, t: res.Timestamp})
	w.tr.count(cKVRegister, en-st, int64(len(x)))
	return res, err
}

func (w *registerWrap) ReadX(ctx context.Context, j int) (ustor.ReadResult, error) {
	if !w.tr.on.Load() {
		return w.inner.ReadX(ctx, j)
	}
	st := now()
	res, err := w.inner.ReadX(ctx, j)
	en := now()
	w.tr.add(span{name: "kv.register", start: st, end: en, seq: w.tr.cur[w.client].Load(), client: w.client, t: res.Timestamp})
	w.tr.count(cKVRegister, en-st, int64(len(res.Value)))
	return res, err
}

// blobChanWrap wraps a kv.Store's bulk blob channel.
type blobChanWrap struct {
	tr     *tracer
	inner  transport.BlobChannel
	client int32
}

var _ transport.BlobChannel = (*blobChanWrap)(nil)

func (w *blobChanWrap) PutBlob(ctx context.Context, hash, data []byte) error {
	if !w.tr.on.Load() {
		return w.inner.PutBlob(ctx, hash, data)
	}
	st := now()
	err := w.inner.PutBlob(ctx, hash, data)
	en := now()
	w.tr.add(span{name: "kv.blob", start: st, end: en, seq: w.tr.cur[w.client].Load(), client: w.client, hash: hashKey(hash), bytes: int64(len(data))})
	w.tr.count(cKVBlobPut, en-st, int64(len(data)))
	return err
}

func (w *blobChanWrap) GetBlob(ctx context.Context, hash []byte) ([]byte, error) {
	if !w.tr.on.Load() {
		return w.inner.GetBlob(ctx, hash)
	}
	st := now()
	data, err := w.inner.GetBlob(ctx, hash)
	en := now()
	w.tr.add(span{name: "kv.blob", start: st, end: en, seq: w.tr.cur[w.client].Load(), client: w.client, hash: hashKey(hash), bytes: int64(len(data))})
	w.tr.count(cKVBlobGet, en-st, int64(len(data)))
	return data, err
}

func (w *blobChanWrap) Close() error { return w.inner.Close() }

// offlineWrap counts a FAUST client's offline (client-to-client) traffic.
type offlineWrap struct {
	offline.Channel
	tr *tracer
}

func (w *offlineWrap) Send(to int, m wire.Message) error {
	w.tr.count(cOffline, 0, 0)
	return w.Channel.Send(to, m)
}

func (w *offlineWrap) Broadcast(m wire.Message) error {
	w.tr.count(cOffline, 0, 0)
	return w.Channel.Broadcast(m)
}
