package transport

import (
	"context"
	"time"

	"faust/internal/obs/trace"
	"faust/internal/wire"
)

// Bridging between in-process trace contexts (internal/obs/trace) and
// their wire form (wire.TraceCtx). Senders attach, receivers join.

// Span names used by the transport layer. Static constants: the record
// path never formats.
const (
	spanSrvSubmit = "srv.submit"
	spanSrvCommit = "srv.commit"
	spanQueue     = "queue"
	spanWALFsync  = "wal.fsync"
	spanBlobPut   = "srv.blob.put"
	spanBlobGet   = "srv.blob.get"
	spanBlobRPC   = "blob.rpc"
	spanRedial    = "blob.redial"
)

// WireTrace renders ctx's trace context in wire form, nil when ctx
// carries none (or tracing is off). Exported because every layer that
// puts a message on a link needs it (ustor attaches it to SUBMIT).
func WireTrace(ctx context.Context) *wire.TraceCtx {
	id, span, keep, ok := trace.FromContext(ctx)
	if !ok {
		return nil
	}
	tc := &wire.TraceCtx{ID: id, Span: uint64(span)}
	if keep {
		tc.Flags |= wire.TraceFlagKeep
	}
	return tc
}

// joinWireTrace starts a receiver-side span for a trace that arrived on
// the wire. final marks the trace complete when the handle ends — true
// for SUBMIT handling (the operation's last message), false for blob
// requests, which linger so one KV operation's many requests share one
// server-side trace. Returns ctx unchanged and a no-op handle for
// untraced messages.
func joinWireTrace(ctx context.Context, tc *wire.TraceCtx, final bool, name string) (context.Context, trace.Handle) {
	if tc == nil {
		return ctx, trace.Handle{}
	}
	return trace.StartRemote(ctx, trace.TraceID(tc.ID), trace.SpanID(tc.Span),
		tc.Flags&wire.TraceFlagKeep != 0, final, name)
}

// exemplarID converts a wire trace context into the histogram-exemplar
// form, zero when absent.
func exemplarID(tc *wire.TraceCtx) trace.TraceID {
	if tc == nil {
		return trace.TraceID{}
	}
	return trace.TraceID(tc.ID)
}

// traceStamp returns the enqueue stamp for a dispatcher envelope: the
// current time when tracing is on and the message carries a trace,
// zero otherwise (the disabled path stays clock-free).
func traceStamp(m wire.Message) time.Time {
	if !trace.Enabled() {
		return time.Time{}
	}
	if s, ok := m.(*wire.Submit); !ok || s.Inv.Trace == nil {
		return time.Time{}
	}
	return time.Now()
}
