package main

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"sync"
	"time"
)

// base anchors every timestamp the benchmark takes: monotonic
// nanoseconds since process start, comparable across goroutines.
var base = time.Now()

// now returns monotonic nanoseconds since base.
func now() int64 { return int64(time.Since(base)) }

// history is the read checker. Every object (a register, or one key of a
// KV namespace) has a single writer, so its writes are totally ordered.
// A read must return a value that was written to the object, and no
// older than the last write that completed before the read began — the
// regularity every honest USTOR/FAUST server provides (the paper's
// linearizability when the server is correct). Values are recognised by
// the unique "c<client>-<seq>|" prefix package workload gives them, and
// compared by hash so the checker never keeps a copy of a value.
type history struct {
	mu   sync.Mutex
	seed maphash.Seed
	objs map[string]*object
	ids  map[string]writeRef
}

type object struct {
	writes []writeRec
}

type writeRec struct {
	hash       uint64
	begin, end int64 // end == 0: not acknowledged (in flight or failed)
}

type writeRef struct {
	obj string
	idx int
}

// writeToken identifies one write between beginWrite and endWrite.
type writeToken struct {
	o   *object
	idx int
}

func newHistory() *history {
	return &history{seed: maphash.MakeSeed(), objs: make(map[string]*object), ids: make(map[string]writeRef)}
}

// valueID returns the unique prefix of a generated value.
func valueID(v []byte) (string, bool) {
	limit := len(v)
	if limit > 48 {
		limit = 48
	}
	i := bytes.IndexByte(v[:limit], '|')
	if i <= 0 || v[0] != 'c' {
		return "", false
	}
	return string(v[:i+1]), true
}

// beginWrite records that value is about to be written to obj.
func (h *history) beginWrite(obj string, value []byte) (writeToken, error) {
	id, ok := valueID(value)
	if !ok {
		return writeToken{}, fmt.Errorf("check: written value %.20q has no unique prefix", value)
	}
	sum := maphash.Bytes(h.seed, value)
	t := now()
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, dup := h.ids[id]; dup {
		return writeToken{}, fmt.Errorf("check: value %s written twice", id)
	}
	o := h.objs[obj]
	if o == nil {
		o = &object{}
		h.objs[obj] = o
	}
	o.writes = append(o.writes, writeRec{hash: sum, begin: t})
	idx := len(o.writes) - 1
	h.ids[id] = writeRef{obj: obj, idx: idx}
	return writeToken{o: o, idx: idx}, nil
}

// endWrite marks the write acknowledged. Failed writes are never ended:
// a read may or may not observe them.
func (h *history) endWrite(tok writeToken) {
	t := now()
	h.mu.Lock()
	tok.o.writes[tok.idx].end = t
	h.mu.Unlock()
}

// checkRead validates a read of obj that began at start (from now()) and
// returned value (nil: the object was never written).
func (h *history) checkRead(obj string, start int64, value []byte) error {
	end := now()
	var sum uint64
	id, hasID := "", false
	if value != nil {
		id, hasID = valueID(value)
		if !hasID {
			return fmt.Errorf("check: read of %s returned %.20q, which no writer produced", obj, value)
		}
		sum = maphash.Bytes(h.seed, value)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	last := -1 // last write acknowledged before the read began
	if o := h.objs[obj]; o != nil {
		for i := len(o.writes) - 1; i >= 0; i-- {
			if w := o.writes[i]; w.end != 0 && w.end < start {
				last = i
				break
			}
		}
	}
	if value == nil {
		if last >= 0 {
			return fmt.Errorf("check: read of %s returned nothing, but write #%d was acknowledged before it began (lost write)", obj, last)
		}
		return nil
	}
	ref, ok := h.ids[id]
	if !ok || ref.obj != obj {
		return fmt.Errorf("check: read of %s returned %s, which was never written to it", obj, id)
	}
	w := h.objs[obj].writes[ref.idx]
	if w.hash != sum {
		return fmt.Errorf("check: read of %s returned %s with corrupted contents", obj, id)
	}
	if w.begin > end {
		return fmt.Errorf("check: read of %s returned %s before it was written", obj, id)
	}
	if ref.idx < last {
		return fmt.Errorf("check: stale read of %s: got write #%d, but write #%d was acknowledged before the read began", obj, ref.idx, last)
	}
	return nil
}

// lastAcked returns the hash of obj's last acknowledged write, and
// whether there is one.
func (h *history) lastAcked(obj string) (uint64, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	o := h.objs[obj]
	if o == nil {
		return 0, false
	}
	for i := len(o.writes) - 1; i >= 0; i-- {
		if o.writes[i].end != 0 {
			return o.writes[i].hash, true
		}
	}
	return 0, false
}

// sameValue reports whether value hashes to sum.
func (h *history) sameValue(value []byte, sum uint64) bool {
	return maphash.Bytes(h.seed, value) == sum
}
