package transport

import (
	"context"
	"time"

	"faust/internal/crypto"
	"faust/internal/obs"
	"faust/internal/obs/trace"
	"faust/internal/wire"
)

// Batched dispatch pipeline, shared by the TCP and in-memory transports.
//
// The pre-batching dispatchers popped one envelope at a time: one
// signature verify (when enabled), one HandleSubmit, one WAL fsync (under
// persistence) and one reply write per operation. Under load the inbox
// holds many queued operations, and every per-op cost that can legally be
// amortized across them should be. The pipeline stages a drained batch:
//
//	drain     popBatch takes everything queued, up to the -max-batch cap,
//	          preserving arrival (and therefore per-connection FIFO) order
//	verify    SUBMIT signatures of the whole batch check in parallel on
//	          crypto's worker pool — a forged one rejects only its own op
//	apply     verified ops run sequentially against the single-writer
//	          core, exactly as the paper's atomic handlers require; cores
//	          implementing BatchCore buffer their WAL appends
//	flush     each BatchCore the batch touched, by a SUBMIT or a COMMIT,
//	          makes the whole batch durable with one fsync
//	reply     replies coalesce into one framed write per destination
//
// Every batch takes these stages, a batch of one included, so the end of
// a batch is the only point where the WAL flushes. Batches never reorder:
// ops apply in arrival order and per-client reply order is preserved, so
// the reliable-FIFO contract the protocol assumes is untouched.

// DefaultMaxBatch caps how many envelopes one drain may take when the
// transport was not configured otherwise. Large enough to amortize fsync
// and verification fan-out, small enough to bound the latency a first-in
// op waits for its batchmates' apply stage.
const DefaultMaxBatch = 64

// oversizedBatch is the size from which a drained batch is considered
// queue-pressure evidence worth linking to a trace: the batch-size
// histogram then records the batch's first traced SUBMIT as its exemplar.
const oversizedBatch = 32

// batchSink is the transport-specific half of the pipeline: which core
// and (optional) verification keyring own an envelope, and how replies
// leave the server. shardRT implements it for TCP, Network for the
// in-memory transport, which is what lets both run the same dispatch
// engine — and the same drain-after-close semantics.
type batchSink interface {
	sinkCore() ServerCore
	sinkRing() *crypto.Keyring
	sinkName() string
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

// verify-job markers for batchOp.job.
const (
	jobNone     = -1 // no verification configured for this op's sink
	jobRejected = -2 // rejected before verification (sender id mismatch)
)

// batchOp is the pipeline's per-SUBMIT state across stages. Ops stay
// index-aligned with their batch envelopes; a COMMIT records only the
// BatchCore it touched, and generic messages leave their slot zeroed
// apart from done-keeping.
type batchOp struct {
	ctx      context.Context
	h        trace.Handle
	start    time.Time
	tid      trace.TraceID
	job      int
	reply    *wire.Reply
	bc       BatchCore
	isSubmit bool
	done     bool
}

// dispatchScratch is one dispatcher goroutine's reusable buffers: the
// steady state allocates nothing per batch beyond what crypto's pool
// needs for fan-out.
type dispatchScratch struct {
	batch   []envelope
	ops     []batchOp
	jobs    []crypto.VerifyJob
	payload []byte
	cores   []BatchCore
	failed  []BatchCore
	msgs    []wire.Message
}

// dispatchBatches is the dispatcher event loop both transports run: drain
// a batch, pipeline it, repeat until the inbox closes and empties.
func dispatchBatches(q *fifo[envelope], maxBatch int) {
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}
	sc := &dispatchScratch{}
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

const submitRejectDetail = "SUBMIT signature verification failed"

// rejectSubmit accounts one refused SUBMIT: metrics plus a protocol
// event, mirroring how handshake preflight rejections are surfaced.
func rejectSubmit(sink batchSink, from int) {
	tmVerifyRejects.Inc()
	obs.Default().Events().Record(obs.EventSubmitReject, from, sink.sinkName(), submitRejectDetail)
}

// runBatch pipelines a drained batch through verify, apply, flush and
// coalesced reply.
//
//faustlint:hotpath
func runBatch(batch []envelope, sc *dispatchScratch) {
	ops := sc.ops[:0]
	jobs := sc.jobs[:0]
	payload := sc.payload[:0]

	// Stage 1 — classify: join traces, stamp queue waits, and build the
	// verification jobs. Job payloads slice into one shared scratch
	// buffer; each slice is taken immediately after its append, so later
	// growth cannot disturb it.
	for i := range batch {
		e := &batch[i]
		e.sink.countOp()
		var op batchOp
		if m, isSubmit := e.msg.(*wire.Submit); isSubmit {
			op.isSubmit = true
			op.job = jobNone
			op.ctx, op.h = joinWireTrace(context.Background(), m.Inv.Trace, true, spanSrvSubmit)
			trace.Event(op.ctx, spanQueue, e.enq)
			op.start = obs.StartTimer()
			op.tid = exemplarID(m.Inv.Trace)
			if ring := e.sink.sinkRing(); ring != nil {
				if m.Inv.Client != e.from {
					op.job = jobRejected
				} else {
					pstart := len(payload)
					payload = wire.AppendSubmitPayload(payload, m.Inv.Op, m.Inv.Reg, m.T, m.Inv.Trace)
					jobs = append(jobs, crypto.VerifyJob{
						Ring:    ring,
						Signer:  e.from,
						Domain:  crypto.DomainSubmit,
						Sig:     m.Inv.SubmitSig,
						Payload: payload[pstart:len(payload):len(payload)],
					})
					op.job = len(jobs) - 1
				}
			}
		}
		ops = append(ops, op)
	}
	sc.jobs = jobs
	sc.payload = payload

	// Stage 2 — verify the whole batch at once, fanning out across the
	// shared worker pool when it is wide enough to pay off.
	if len(jobs) > 0 {
		var vstart time.Time
		if trace.Enabled() {
			vstart = time.Now()
		}
		crypto.VerifyBatch(jobs)
		for i := range ops {
			if ops[i].job >= 0 {
				trace.Event(ops[i].ctx, spanVerify, vstart)
			}
		}
	}

	// Stage 3 — apply in arrival order. SUBMITs against a BatchCore
	// buffer their WAL append, and a COMMIT marks its BatchCore for the
	// batch flush. A message kind with server-push semantics
	// (GenericCore) is a barrier: the prefix must flush and reply first,
	// or its handler could push messages that overtake replies owed to
	// the same client.
	for i := range batch {
		e := &batch[i]
		op := &ops[i]
		switch m := e.msg.(type) {
		case *wire.Submit:
			if op.job == jobRejected || (op.job >= 0 && !jobs[op.job].OK) {
				rejectSubmit(e.sink, e.from)
				continue
			}
			if bc, ok := e.sink.sinkCore().(BatchCore); ok {
				op.reply = bc.HandleSubmitBuffered(op.ctx, e.from, m)
				op.bc = bc
			} else {
				op.reply = e.sink.sinkCore().HandleSubmit(op.ctx, e.from, m)
			}
		case *wire.Commit:
			start := obs.StartTimer()
			core := e.sink.sinkCore()
			core.HandleCommit(context.Background(), e.from, m)
			tmCommitNs.ObserveSince(start)
			if bc, ok := core.(BatchCore); ok {
				op.bc = bc
			}
		default:
			gc, ok := e.sink.sinkCore().(GenericCore)
			if !ok {
				e.sink.dropUnknown()
				continue
			}
			flushAndSend(batch[:i], ops[:i], sc)
			gc.HandleMessage(e.from, e.msg)
		}
	}

	// Stages 4+5 — flush every touched BatchCore once, then send the
	// batch's replies coalesced per destination.
	flushAndSend(batch, ops, sc)
}

// flushAndSend settles every not-yet-done op in the prefix: batch-flush
// the distinct BatchCores touched (suppressing replies of a core whose
// flush failed — its clients must observe silence, exactly as from a
// sticky-broken core), end the SUBMITs' spans, then deliver replies
// grouped by destination in arrival order. Idempotent per op via the done
// flag, so the mid-batch barrier and the final call compose.
//
//faustlint:hotpath
func flushAndSend(batch []envelope, ops []batchOp, sc *dispatchScratch) {
	cores := sc.cores[:0]
	for i := range ops {
		op := &ops[i]
		if op.done || op.bc == nil {
			continue
		}
		seen := false
		for _, c := range cores {
			if c == op.bc {
				seen = true
				break
			}
		}
		if !seen {
			cores = append(cores, op.bc)
		}
	}
	sc.cores = cores
	if len(cores) > 0 {
		var fstart time.Time
		if trace.Enabled() {
			fstart = time.Now()
		}
		failed := sc.failed[:0]
		for _, bc := range cores {
			if err := bc.FlushBatch(); err != nil {
				failed = append(failed, bc)
			}
		}
		sc.failed = failed
		for i := range ops {
			op := &ops[i]
			if op.done || op.bc == nil {
				continue
			}
			for _, fc := range failed {
				if fc == op.bc {
					op.reply = nil
					break
				}
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
			ej := &batch[j]
			if ej.sink == e.sink && ej.from == e.from {
				msgs = append(msgs, oj.reply)
				oj.done = true
			}
		}
		sc.msgs = msgs
		e.sink.sendReplies(e.from, msgs)
	}
}
