package transport

import (
	"context"
	"time"

	"faust/internal/obs"
	"faust/internal/obs/trace"
	"faust/internal/wire"
)

// Batched dispatch pipeline, shared by the TCP and in-memory transports.
//
// The pre-batching dispatchers popped one envelope at a time: one
// HandleSubmit, one WAL fsync (under persistence) and one reply write per
// operation. Under load the inbox holds many queued operations, and every
// per-op cost that can legally be amortized across them should be. The
// pipeline stages a drained batch:
//
//	drain     popBatch takes everything queued, up to the -max-batch cap,
//	          preserving arrival (and therefore per-connection FIFO) order
//	apply     ops run sequentially against the single-writer core,
//	          exactly as the paper's atomic handlers require; a SUBMIT
//	          naming another client than its connection is dropped, and
//	          cores implementing BatchCore buffer their WAL appends
//	flush     a BatchCore the batch touched, by a SUBMIT or a COMMIT,
//	          makes the whole batch durable with one fsync
//	reply     replies coalesce into one framed write per destination
//
// Every batch takes these stages, a batch of one included, so the end of
// a batch is the only point where the WAL flushes. Batches never reorder:
// ops apply in arrival order and per-client reply order is preserved, so
// the reliable-FIFO contract the protocol assumes is untouched.

// DefaultMaxBatch caps how many envelopes one drain may take when the
// transport was not configured otherwise. Large enough to amortize fsync,
// small enough to bound the latency a first-in op waits for its
// batchmates' apply stage.
const DefaultMaxBatch = 64

// oversizedBatch is the size from which a drained batch is considered
// queue-pressure evidence worth linking to a trace: the batch-size
// histogram then records the batch's first traced SUBMIT as its exemplar.
const oversizedBatch = 32

// batchSink is the transport-specific half of the pipeline: which core
// owns an envelope, and how replies leave the server. shardRT implements
// it for TCP, Network for the in-memory transport, which is what lets both
// run the same dispatch engine — and the same drain-after-close semantics.
type batchSink interface {
	sinkCore() ServerCore
	// countOp accounts one dispatched envelope (per-tenant op counters).
	countOp()
	// sendReplies delivers a batch's replies for client `to` in order,
	// coalesced into as few transport writes as possible. Delivery
	// failures are the destination's problem (dead connection, closed
	// outbox) — the dispatcher never blocks on them.
	sendReplies(to int, msgs []wire.Message)
	// dropUnknown accounts a message kind the core cannot handle.
	dropUnknown()
}

// BatchCore is an optional ServerCore extension for cores whose
// durability barrier can cover many operations at once. The dispatcher
// applies a batch's SUBMITs through HandleSubmitBuffered — append and
// apply, no flush — and its COMMITs through HandleCommit, then calls
// FlushBatch once for every batch that touched the core. Replies are
// withheld until the flush succeeds, so no client observes an operation
// recovery cannot replay, and a COMMIT is durable when its batch ends.
// store.Persistent implements it structurally.
type BatchCore interface {
	ServerCore
	HandleSubmitBuffered(ctx context.Context, from int, s *wire.Submit) *wire.Reply
	FlushBatch() error
}

// batchOp is the pipeline's per-SUBMIT state across stages. Ops stay
// index-aligned with their batch envelopes; a COMMIT records only whether
// it awaits the batch flush, and generic messages leave their slot zeroed
// apart from done-keeping.
type batchOp struct {
	ctx      context.Context
	h        trace.Handle
	start    time.Time
	tid      trace.TraceID
	reply    *wire.Reply
	durable  bool // logged by the BatchCore; settles at its batch flush
	isSubmit bool
	done     bool
}

// dispatchScratch is one dispatcher goroutine's state: the sink every
// envelope of its inbox belongs to, its core, and reusable buffers, so
// the steady state allocates nothing per batch.
type dispatchScratch struct {
	sink  batchSink
	core  ServerCore
	bc    BatchCore // core as a BatchCore; nil when it has no batch flush
	batch []envelope
	ops   []batchOp
	msgs  []wire.Message
}

// dispatchBatches is the dispatcher event loop both transports run: drain
// a batch of the sink's inbox, pipeline it, repeat until the inbox closes
// and empties.
func dispatchBatches(q *fifo[envelope], sink batchSink, maxBatch int) {
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}
	sc := &dispatchScratch{sink: sink, core: sink.sinkCore()}
	sc.bc, _ = sc.core.(BatchCore)
	for {
		batch, ok := q.popBatch(maxBatch, sc.batch[:0])
		sc.batch = batch
		if len(batch) == 0 {
			if !ok {
				return
			}
			continue
		}
		observeBatchSize(batch)
		runBatch(batch, sc)
	}
}

// observeBatchSize feeds the dispatch batch-size histogram; oversized
// batches pin their first traced SUBMIT as the histogram exemplar so a
// queue-pressure spike links straight to a trace of an op that sat in it.
func observeBatchSize(batch []envelope) {
	var tid trace.TraceID
	if len(batch) >= oversizedBatch {
		for i := range batch {
			if s, ok := batch[i].msg.(*wire.Submit); ok {
				if id := exemplarID(s.Inv.Trace); !id.IsZero() {
					tid = id
					break
				}
			}
		}
	}
	tmBatchSize.ObserveExemplarAlways(int64(len(batch)), tid)
}

const submitRejectDetail = "SUBMIT names another client than its connection"

// rejectSubmit accounts one refused SUBMIT: metrics plus a protocol
// event, mirroring how handshake rejections are surfaced.
func rejectSubmit(from int) {
	tmVerifyRejects.Inc()
	obs.Default().Events().Record(obs.EventSubmitReject, from, "", submitRejectDetail)
}

// runBatch pipelines a drained batch through apply, flush and coalesced
// reply.
//
//faustlint:hotpath
func runBatch(batch []envelope, sc *dispatchScratch) {
	ops := sc.ops[:0]

	// Stage 1 — classify: join traces and stamp queue waits, so every
	// SUBMIT's server span covers its wait for earlier batchmates.
	for i := range batch {
		e := &batch[i]
		sc.sink.countOp()
		var op batchOp
		if m, isSubmit := e.msg.(*wire.Submit); isSubmit {
			op.isSubmit = true
			op.ctx, op.h = joinWireTrace(context.Background(), m.Inv.Trace, true, spanSrvSubmit)
			trace.Event(op.ctx, spanQueue, e.enq)
			op.start = obs.StartTimer()
			op.tid = exemplarID(m.Inv.Trace)
		}
		ops = append(ops, op)
	}
	sc.ops = ops

	// Stage 2 — apply in arrival order. A SUBMIT must name the client
	// whose connection carried it: the handshake authenticated that
	// connection, never the identity a message claims. SUBMITs against a
	// BatchCore buffer their WAL append, and a COMMIT marks its BatchCore
	// for the batch flush. A message kind with server-push semantics
	// (GenericCore) is a barrier: the prefix must flush and reply first,
	// or its handler could push messages that overtake replies owed to
	// the same client.
	for i := range batch {
		e := &batch[i]
		op := &ops[i]
		switch m := e.msg.(type) {
		case *wire.Submit:
			if m.Inv.Client != e.from {
				rejectSubmit(e.from)
				continue
			}
			if sc.bc != nil {
				op.reply = sc.bc.HandleSubmitBuffered(op.ctx, e.from, m)
				op.durable = true
			} else {
				op.reply = sc.core.HandleSubmit(op.ctx, e.from, m)
			}
		case *wire.Commit:
			start := obs.StartTimer()
			sc.core.HandleCommit(context.Background(), e.from, m)
			tmCommitNs.ObserveSince(start)
			op.durable = sc.bc != nil
		default:
			gc, ok := sc.core.(GenericCore)
			if !ok {
				sc.sink.dropUnknown()
				continue
			}
			flushAndSend(batch[:i], ops[:i], sc)
			gc.HandleMessage(e.from, e.msg)
		}
	}

	// Stages 3+4 — flush the BatchCore once if the batch touched it, then
	// send the batch's replies coalesced per destination.
	flushAndSend(batch, ops, sc)
}

// flushAndSend settles every not-yet-done op in the prefix: flush the
// BatchCore once if any of them awaits it (suppressing their replies when
// the flush fails — clients must observe silence, exactly as from a
// sticky-broken core), end the SUBMITs' spans, then deliver replies
// grouped by destination in arrival order. Idempotent per op via the done
// flag, so the mid-batch barrier and the final call compose.
//
//faustlint:hotpath
func flushAndSend(batch []envelope, ops []batchOp, sc *dispatchScratch) {
	flush := false
	for i := range ops {
		if !ops[i].done && ops[i].durable {
			flush = true
			break
		}
	}
	if flush {
		var fstart time.Time
		if trace.Enabled() {
			fstart = time.Now()
		}
		failed := sc.bc.FlushBatch() != nil
		for i := range ops {
			op := &ops[i]
			if op.done || !op.durable {
				continue
			}
			if failed {
				op.reply = nil
			}
			if op.isSubmit {
				trace.Event(op.ctx, spanWALFsync, fstart)
			}
		}
	}

	// Close each SUBMIT's server span before any reply leaves: a client
	// holding its reply must find the server half of its trace complete.
	for i := range ops {
		op := &ops[i]
		if !op.done && op.isSubmit {
			tmSubmitNs.ObserveSinceExemplar(op.start, op.tid)
			op.h.End()
		}
	}

	for i := range ops {
		op := &ops[i]
		if op.done {
			continue
		}
		op.done = true
		if !op.isSubmit || op.reply == nil {
			continue
		}
		e := &batch[i]
		msgs := append(sc.msgs[:0], wire.Message(op.reply))
		for j := i + 1; j < len(ops); j++ {
			oj := &ops[j]
			if oj.done || oj.reply == nil {
				continue
			}
			if batch[j].from == e.from {
				msgs = append(msgs, oj.reply)
				oj.done = true
			}
		}
		sc.msgs = msgs
		sc.sink.sendReplies(e.from, msgs)
	}
}
