// Package transport provides the communication substrate of the model in
// Section 2 of the paper: asynchronous reliable FIFO channels between each
// client and the server.
//
// Two implementations share one interface: an in-memory network used by
// tests, simulations and benchmarks (optionally with randomized
// per-message delays to exercise asynchrony), and a TCP transport used by
// the cmd/ tools. Both preserve per-link FIFO order and never drop
// messages while open; that is exactly the reliability the protocol
// assumes.
package transport

import (
	"context"
	"errors"
	"sync"
	"time"

	"faust/internal/wire"
)

// ErrClosed is returned by link operations after the link has been closed.
var ErrClosed = errors.New("transport: link closed")

// Link is one endpoint of a reliable FIFO duplex channel between a client
// and the server. Send never blocks (channels are unbounded, matching the
// asynchronous model); Recv blocks until a message arrives or the link
// closes.
type Link interface {
	Send(m wire.Message) error
	Recv() (wire.Message, error)
	Close() error
}

// ServerCore is the pure state machine of a storage server. The network
// delivers each arriving message to exactly one handler call; calls are
// serialized, matching the paper's atomic event handlers ("the server
// processes arriving SUBMIT messages in FIFO order, and the execution of
// each event handler is atomic").
//
// HandleSubmit returns the REPLY to send back to the submitting client.
// A nil reply means the server sends nothing (only Byzantine servers do
// that; a correct server always replies, which is what makes the protocol
// wait-free).
//
// The context carries the operation's tracing context (when the SUBMIT
// arrived with one) so wrapping cores — the durable store, the USTOR
// state machine — can attach their stages to the request's trace. Cores
// must not use it for cancellation: the protocol's atomic handlers run
// to completion.
type ServerCore interface {
	HandleSubmit(ctx context.Context, from int, s *wire.Submit) *wire.Reply
	HandleCommit(ctx context.Context, from int, c *wire.Commit)
}

// GenericCore is an optional extension of ServerCore for protocols whose
// servers push messages to arbitrary clients at arbitrary times — the
// lock-step baseline defers its replies until the previous operation
// commits, so a plain request-reply core does not fit it.
//
// When the core implements GenericCore, the network calls AttachPusher
// once before dispatch starts, and routes every message that is neither a
// SUBMIT nor a COMMIT to HandleMessage (still serialized with all other
// handler calls).
type GenericCore interface {
	HandleMessage(from int, m wire.Message)
	AttachPusher(push func(to int, m wire.Message) error)
}

// queue is an unbounded FIFO of messages with blocking Pop.
type queue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []wire.Message
	closed bool
}

func newQueue() *queue {
	q := &queue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *queue) push(m wire.Message) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	q.items = append(q.items, m)
	q.cond.Signal()
	return nil
}

// pushAll appends a batch of messages atomically — one lock round and
// one wake-up for a whole batch of coalesced replies.
func (q *queue) pushAll(ms []wire.Message) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	q.items = append(q.items, ms...)
	q.cond.Broadcast()
	return nil
}

// pop blocks until an item is available or the queue closes. Items
// already queued at close time are still delivered (reliable channel).
func (q *queue) pop() (wire.Message, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.items) == 0 {
		return nil, ErrClosed
	}
	m := q.items[0]
	q.items[0] = nil
	q.items = q.items[1:]
	return m, nil
}

func (q *queue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}

// envelope tags a message with its sender for a server inbox; every
// inbox belongs to one batchSink (a TCP shard, the in-memory network). enq
// is the enqueue stamp for the dispatcher queue-wait span; it is zero when
// tracing is off so the disabled path never reads the clock.
type envelope struct {
	from int
	msg  wire.Message
	enq  time.Time
}

// fifo is an unbounded FIFO with blocking pop, shared by the in-memory
// network's envelope inbox and the TCP server's per-shard inboxes. push
// returns false once the queue is closed; pop blocks until an item is
// available or the queue closes (items queued before close are still
// delivered — reliable channel).
type fifo[T any] struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []T
	closed bool
}

func newFIFO[T any]() *fifo[T] {
	q := &fifo[T]{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *fifo[T]) push(v T) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	q.items = append(q.items, v)
	q.cond.Signal()
	return true
}

func (q *fifo[T]) pop() (T, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	var zero T
	if len(q.items) == 0 {
		return zero, false
	}
	v := q.items[0]
	q.items[0] = zero
	q.items = q.items[1:]
	return v, true
}

// popBatch blocks like pop, then drains up to max queued items (all of
// them when max <= 0) into buf and returns the extended slice. Items
// queued before close are still delivered — the drain path after close
// behaves exactly like the live path, batching included. The second
// return is false only when the queue is closed AND empty.
//
//faustlint:hotpath
func (q *fifo[T]) popBatch(max int, buf []T) ([]T, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	n := len(q.items)
	if n == 0 {
		return buf, false
	}
	if max > 0 && n > max {
		n = max
	}
	buf = append(buf, q.items[:n]...)
	var zero T
	for i := 0; i < n; i++ {
		q.items[i] = zero
	}
	q.items = q.items[n:]
	return buf, true
}

func (q *fifo[T]) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}

// Stats aggregates message counts and encoded sizes per direction. It is
// populated only when the network is created with metrics enabled.
type Stats struct {
	ClientToServerMsgs  int64
	ClientToServerBytes int64
	ServerToClientMsgs  int64
	ServerToClientBytes int64
}

// RoundsPerOp returns the average number of client->server->client message
// rounds per operation, assuming every operation sends SUBMIT + COMMIT and
// receives one REPLY. It exists for the E5 experiment.
func (s Stats) RoundsPerOp(ops int) float64 {
	if ops == 0 {
		return 0
	}
	return float64(s.ServerToClientMsgs) / float64(ops)
}
