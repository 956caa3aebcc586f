package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
)

// The traced run records spans from the benchmark's own wrappers around
// the public interfaces between layers (wrap.go), never from inside the
// program. A span is joined to the user operation that caused it by one
// of three keys:
//
//   - seq, the load generator's operation number, for client-side calls the
//     benchmark makes on behalf of exactly one operation (KV register and
//     blob-channel calls);
//   - (client, T), the protocol timestamp a SUBMIT, REPLY or COMMIT
//     carries, for link messages and everything the server does — which
//     also tells a user operation from a background dummy read;
//   - the blob hash, for server-side blob-store calls, which the memory
//     blob channel runs inside the client's blob-channel call.

// span is one recorded interval. Times are monotonic ns (now()).
type span struct {
	name       string
	start, end int64
	seq        uint64 // load generator's op number; 0 = not known at record time
	client     int32  // -1 = unknown
	t          int64  // protocol timestamp; 0 = none
	hash       uint64 // blob hash prefix; 0 = none
	bytes      int64
	isReply    bool // transport.recv of a REPLY
}

// opKey is the protocol join key.
type opKey struct {
	client int32
	t      int64
}

// opRecord is one user operation as the load generator saw it.
type opRecord struct {
	seq        uint64
	kind       opKind
	client     int32
	t          int64 // 0 when the op returns no protocol timestamp
	start, end int64
}

// counter accumulates one boundary's calls, busy time and bytes.
type counter struct {
	n, ns, bytes atomic.Int64
}

func (c *counter) add(ns, bytes int64) {
	c.n.Add(1)
	c.ns.Add(ns)
	c.bytes.Add(bytes)
}

// meanUs is the mean call duration in microseconds.
func (c *counter) meanUs() float64 {
	if n := c.n.Load(); n > 0 {
		return float64(c.ns.Load()) / float64(n) / 1e3
	}
	return 0
}

// Counter names; every wrapper counts at its boundary under one of these.
const (
	cSrvSubmit   = "srv.submit"   // outermost server core: SUBMIT handlers
	cSrvBuffered = "srv.buffered" // BatchCore.HandleSubmitBuffered
	cSrvFlush    = "srv.flush"    // BatchCore.FlushBatch
	cSrvCommit   = "srv.commit"   // outermost server core: COMMIT handler
	cApply       = "ustor.apply"
	cCommit      = "ustor.commit"
	cWALAppend   = "store.wal_append"
	cWALFlush    = "store.wal_flush"
	cSnapshot    = "store.snapshot"
	cBlobPut     = "store.blob_put"
	cBlobGet     = "store.blob_get"
	cKVRegister  = "kv.register"
	cKVBlobPut   = "kv.blob_put"
	cKVBlobGet   = "kv.blob_get"
	cOffline     = "offline.send"
)

var counterNames = []string{cSrvSubmit, cSrvBuffered, cSrvFlush, cSrvCommit, cApply, cCommit,
	cWALAppend, cWALFlush, cSnapshot, cBlobPut, cBlobGet, cKVRegister, cKVBlobPut, cKVBlobGet, cOffline}

// tracer collects spans and counters in memory while on.
type tracer struct {
	on  atomic.Bool
	ctr map[string]*counter // fixed at construction; read-only map

	mu    sync.Mutex
	spans []span
	ops   []opRecord

	cur [maxClients]atomic.Uint64 // op each client is running for the load generator

	// Ops the server is handling right now. Only the dispatcher goroutine
	// calls the server wrappers, so this is the context for boundaries
	// further down (the WAL backend) that see no operation identity.
	srvMu      sync.Mutex
	srvOps     []opKey
	srvPending []opKey // buffered SUBMITs awaiting FlushBatch
}

const maxClients = 8

func newTracer() *tracer {
	tr := &tracer{ctr: make(map[string]*counter, len(counterNames))}
	for _, n := range counterNames {
		tr.ctr[n] = &counter{}
	}
	tr.spans = make([]span, 0, 1<<16)
	return tr
}

// c returns the named counter.
func (tr *tracer) c(name string) *counter { return tr.ctr[name] }

// add records a span while the tracer is on.
func (tr *tracer) add(s span) {
	if !tr.on.Load() {
		return
	}
	tr.mu.Lock()
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
}

// count adds to a counter while the tracer is on.
func (tr *tracer) count(name string, ns, bytes int64) {
	if tr.on.Load() {
		tr.ctr[name].add(ns, bytes)
	}
}

// op records a completed user operation.
func (tr *tracer) op(r opRecord) {
	if !tr.on.Load() {
		return
	}
	tr.mu.Lock()
	tr.ops = append(tr.ops, r)
	tr.mu.Unlock()
}

// setServing records which ops the server handles now; recordServing
// emits one span per such op, so a flush shared by a batch appears in
// each of its ops' budgets.
func (tr *tracer) setServing(keys ...opKey) {
	tr.srvMu.Lock()
	tr.srvOps = append(tr.srvOps[:0], keys...)
	tr.srvMu.Unlock()
}

func (tr *tracer) recordServing(name string, start, end, bytes int64) {
	if !tr.on.Load() {
		return
	}
	tr.srvMu.Lock()
	keys := append([]opKey(nil), tr.srvOps...)
	tr.srvMu.Unlock()
	for _, k := range keys {
		tr.add(span{name: name, start: start, end: end, client: k.client, t: k.t, bytes: bytes})
	}
}

// addPending queues a buffered SUBMIT for the next FlushBatch; takePending
// hands the queue to the flush.
func (tr *tracer) addPending(k opKey) {
	tr.srvMu.Lock()
	tr.srvPending = append(tr.srvPending, k)
	tr.srvMu.Unlock()
}

func (tr *tracer) takePending() []opKey {
	tr.srvMu.Lock()
	defer tr.srvMu.Unlock()
	p := tr.srvPending
	tr.srvPending = nil
	return p
}

// stage is a span name's place in the budget: deeper spans win the
// instants they cover, and a span's self time is reported under label.
type stage struct {
	depth int
	label string
}

// labelUnattributed is the explicit residual: instants of an operation
// where the client only waited and no recorded boundary explains why.
const labelUnattributed = "unattributed"

var stages = map[string]stage{
	"faustproto.dummy_read": {1, "faustproto.dummy_read"},
	"kv.register":           {2, "ustor.client_self"},
	"kv.blob":               {2, "transport.blob_channel"},
	"transport.recv":        {3, labelUnattributed},
	"transport.queue_wait":  {4, "transport.queue_wait"},
	"transport.reply":       {4, "transport.reply"},
	"transport.send":        {5, "transport.send"},
	"store.persistent":      {5, "store.log_self"},
	"transport.batch_flush": {5, "transport.batch_flush"},
	"store.blob_put":        {5, "store.blob_put"},
	"store.blob_get":        {5, "store.blob_get"},
	"ustor.apply":           {6, "ustor.apply"},
	"ustor.commit":          {6, "ustor.commit"},
	"store.wal_append":      {6, "store.wal_append"},
	"store.snapshot":        {6, "store.snapshot"},
	"store.wal_flush":       {6, "store.wal_flush"},
}

// analysis is the joined view of one traced window.
type analysis struct {
	ops    []opRecord
	byOp   map[uint64][]span // spans (incl. derived) per user op
	budget map[opKind]map[string]int64
	count  map[opKind]int

	rttNs, queueNs, replyNs []int64 // per user-op SUBMIT
	linkMsgs, replies       int     // link messages of user ops
	linkBytes               int64
	userSubmits             int // server SUBMITs of user operations
	dummySubmits            int // server SUBMITs of no user operation: FAUST's dummy reads
}

// analyze joins spans to operations, derives the queue-wait and reply
// intervals of every user SUBMIT, and partitions each operation's time
// into stages. frame labels the instants no span covers — the top
// layer's own work.
func (tr *tracer) analyze(frame string) *analysis {
	tr.mu.Lock()
	spans := tr.spans
	ops := tr.ops
	tr.mu.Unlock()

	a := &analysis{ops: ops, byOp: make(map[uint64][]span, len(ops)),
		budget: make(map[opKind]map[string]int64), count: make(map[opKind]int)}
	bySeq := make(map[uint64]*opRecord, len(ops))
	byKey := make(map[opKey]uint64, len(ops))
	for i := range ops {
		bySeq[ops[i].seq] = &ops[i]
		if ops[i].t != 0 {
			byKey[opKey{ops[i].client, ops[i].t}] = ops[i].seq
		}
	}
	for _, s := range spans {
		if s.name == "kv.register" && s.seq != 0 && s.t != 0 {
			byKey[opKey{s.client, s.t}] = s.seq
		}
	}
	// Server SUBMITs joined to no user operation are background reads —
	// unless they straddle the window's edges, i.e. fall outside the
	// range of the client's user-op timestamps.
	lo, hi := map[int32]int64{}, map[int32]int64{}
	for k := range byKey {
		if t, ok := lo[k.client]; !ok || k.t < t {
			lo[k.client] = k.t
		}
		if k.t > hi[k.client] {
			hi[k.client] = k.t
		}
	}
	for _, s := range spans {
		if s.name != "ustor.apply" {
			continue
		}
		k := opKey{s.client, s.t}
		if _, ok := byKey[k]; ok {
			a.userSubmits++
		} else if lo[k.client] < k.t && k.t < hi[k.client] {
			a.dummySubmits++
		}
	}
	// Client blob-channel calls, by hash, to adopt the server-side
	// blob-store calls they contain.
	type blobCall struct {
		seq        uint64
		start, end int64
	}
	blobCalls := make(map[uint64][]blobCall)
	for _, s := range spans {
		if s.name == "kv.blob" && s.seq != 0 {
			blobCalls[s.hash] = append(blobCalls[s.hash], blobCall{s.seq, s.start, s.end})
		}
	}
	for _, s := range spans {
		seq := s.seq
		if seq == 0 && s.t != 0 {
			seq = byKey[opKey{s.client, s.t}]
		}
		if seq == 0 && s.hash != 0 {
			for _, bc := range blobCalls[s.hash] {
				if bc.start <= s.start && s.end <= bc.end {
					seq = bc.seq
					break
				}
			}
		}
		if _, ok := bySeq[seq]; ok {
			a.byOp[seq] = append(a.byOp[seq], s)
		}
	}

	// A FAUST dummy read holds the client's USTOR session: a user op that
	// starts meanwhile waits for it. Its link traffic (keyed by its own T)
	// marks the interval.
	background := make(map[opKey]span)
	for _, s := range spans {
		k := opKey{s.client, s.t}
		if s.t == 0 || (s.name != "transport.send" && s.name != "transport.recv") {
			continue
		}
		if _, user := byKey[k]; user {
			continue
		}
		b, ok := background[k]
		if !ok {
			b = span{name: "faustproto.dummy_read", start: s.start, end: s.end, client: s.client, t: s.t}
		}
		if s.start < b.start {
			b.start = s.start
		}
		if s.end > b.end {
			b.end = s.end
		}
		background[k] = b
	}
	bgByClient := make(map[int32][]span)
	for _, b := range background {
		bgByClient[b.client] = append(bgByClient[b.client], b)
	}
	for i := range ops {
		for _, b := range bgByClient[ops[i].client] {
			if b.start < ops[i].end && ops[i].start < b.end {
				a.byOp[ops[i].seq] = append(a.byOp[ops[i].seq], b)
			}
		}
	}

	// Derived spans: client Send of the SUBMIT -> server entry is the
	// queue wait, server return -> client Recv of the REPLY the reply.
	for seq, ss := range a.byOp {
		type rpc struct {
			send, srv, recv *span
		}
		rpcs := make(map[int64]*rpc)
		get := func(t int64) *rpc {
			r := rpcs[t]
			if r == nil {
				r = &rpc{}
				rpcs[t] = r
			}
			return r
		}
		for i := range ss {
			s := &ss[i]
			if s.t == 0 {
				continue
			}
			switch s.name {
			case "transport.send":
				if r := get(s.t); r.send == nil {
					r.send = s // the SUBMIT precedes the COMMIT
				}
				a.linkMsgs++
				a.linkBytes += s.bytes
			case "transport.recv":
				get(s.t).recv = s
				a.linkMsgs++
				a.linkBytes += s.bytes
				if s.isReply {
					a.replies++
				}
			case "store.persistent", "ustor.apply":
				// The outermost server span of the SUBMIT.
				if r := get(s.t); r.srv == nil || s.start < r.srv.start {
					r.srv = s
				}
			}
		}
		for t, r := range rpcs {
			if r.send == nil || r.srv == nil || r.recv == nil {
				continue
			}
			q := span{name: "transport.queue_wait", start: r.send.start, end: r.srv.start, seq: seq, t: t}
			rp := span{name: "transport.reply", start: r.srv.end, end: r.recv.end, seq: seq, t: t}
			a.queueNs = append(a.queueNs, q.end-q.start)
			a.replyNs = append(a.replyNs, rp.end-rp.start)
			a.rttNs = append(a.rttNs, r.recv.end-r.send.start)
			ss = append(ss, q, rp)
		}
		a.byOp[seq] = ss
	}

	for i := range ops {
		op := &ops[i]
		b := a.budget[op.kind]
		if b == nil {
			b = make(map[string]int64)
			a.budget[op.kind] = b
		}
		a.count[op.kind]++
		partition(op.start, op.end, a.byOp[op.seq], frame, b)
	}
	return a
}

// partition attributes every instant of [start, end) to the deepest span
// covering it (the frame label when none does) and adds the time to b.
// The labels' times therefore sum to the operation's duration exactly.
func partition(start, end int64, ss []span, frame string, b map[string]int64) {
	type iv struct {
		s, e  int64
		depth int
		label string
	}
	ivs := make([]iv, 0, len(ss))
	cuts := []int64{start, end}
	for _, s := range ss {
		st, ok := stages[s.name]
		if !ok {
			continue
		}
		lo, hi := s.start, s.end
		if lo < start {
			lo = start
		}
		if hi > end {
			hi = end
		}
		if lo >= hi {
			continue
		}
		ivs = append(ivs, iv{lo, hi, st.depth, st.label})
		cuts = append(cuts, lo, hi)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	for k := 0; k+1 < len(cuts); k++ {
		lo, hi := cuts[k], cuts[k+1]
		if lo == hi {
			continue
		}
		label, depth := frame, -1
		for _, v := range ivs {
			if v.s <= lo && hi <= v.e && v.depth > depth {
				label, depth = v.label, v.depth
			}
		}
		b[label] += hi - lo
	}
}

// exportChrome writes up to limit user operations with their spans as
// Chrome trace_event JSON, which Perfetto and chrome://tracing open.
// Client-side spans go on process 1 (one thread per client), server-side
// spans on process 2.
func (a *analysis) exportChrome(path string, limit int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int32          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	server := map[string]bool{"store.persistent": true, "transport.batch_flush": true, "ustor.apply": true,
		"ustor.commit": true, "store.wal_append": true, "store.snapshot": true, "store.wal_flush": true,
		"store.blob_put": true, "store.blob_get": true}
	enc := json.NewEncoder(w)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	emit := func(e event) error {
		if !first {
			fmt.Fprint(w, ",")
		}
		first = false
		return enc.Encode(e)
	}
	for i, op := range a.ops {
		if i >= limit {
			break
		}
		args := map[string]any{"op": op.seq, "client": op.client, "t": op.t}
		if err := emit(event{"op." + op.kind.String(), "X", float64(op.start) / 1e3, float64(op.end-op.start) / 1e3, 1, op.client, args}); err != nil {
			return err
		}
		for _, s := range a.byOp[op.seq] {
			pid, tid := 1, op.client
			if server[s.name] {
				pid, tid = 2, 0
			}
			if err := emit(event{s.name, "X", float64(s.start) / 1e3, float64(s.end-s.start) / 1e3, pid, tid, args}); err != nil {
				return err
			}
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
