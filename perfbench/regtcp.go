package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"faust/internal/crypto"
	"faust/internal/store"
	"faust/internal/transport"
	"faust/internal/ustor"
	"faust/internal/workload"
)

// reg-tcp-wal: two USTOR clients over loopback TCP (v2 handshake, one
// socket each) against the durable server, served by ServeTCPSharded
// with the default batch cap and no server-side verification. The shard
// resolver is the benchmark's own static map, so the core and backend
// can be wrapped. 80% writes of 1 KiB values.
const (
	rtClients   = 2
	rtValueSize = 1024
	rtReadFrac  = 0.2
	rtShard     = "bench"
)

type regTCP struct {
	e       *env
	d       *durable
	srv     *transport.TCPServer
	clients []*ustor.Client
	streams []*workload.Stream
	fails   failures
}

// regTCPOps generates reg-tcp-wal's op streams, one per client.
func regTCPOps(seed int64) *workload.Workload {
	return workload.New(rtClients, workload.Config{ReadFraction: rtReadFrac, ValueSize: rtValueSize, Seed: seed})
}

func setupRegTCP(e *env) (instance, error) {
	d, err := openDurable(e.tr, rtClients)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &regTCP{e: e, d: d}
	r.srv = transport.ServeTCPSharded(ln, transport.StaticShards(map[string]transport.ServerCore{rtShard: d.core}),
		transport.WithTCPMaxBatch(transport.DefaultMaxBatch))
	ring, signers := crypto.NewTestKeyring(rtClients, e.seed)
	wl := regTCPOps(e.seed)
	for i := 0; i < rtClients; i++ {
		link, err := transport.DialTCPShard(r.srv.Addr().String(), rtShard, i)
		if err != nil {
			r.close()
			return nil, err
		}
		if e.tr != nil {
			link = &linkWrap{tr: e.tr, inner: link, client: int32(i)}
		}
		r.clients = append(r.clients, ustor.NewClient(i, ring, signers[i], link, ustor.WithFailHandler(r.fails.add)))
		r.streams = append(r.streams, wl.Stream(i))
	}
	return r, nil
}

func (r *regTCP) step(g int, l *lane) bool {
	c := r.clients[g]
	op := r.streams[g].Next()
	if op.IsWrite {
		tok, err := r.e.hist.beginWrite(regObj(g), op.Value)
		if err != nil {
			l.violate(err)
			return false
		}
		ot := l.begin(g)
		res, err := c.WriteX(context.Background(), op.Value)
		l.end(ot, kWrite, res.Timestamp, err)
		if err != nil {
			return false
		}
		r.e.hist.endWrite(tok)
		return true
	}
	ot := l.begin(g)
	res, err := c.ReadX(context.Background(), op.Reg)
	l.end(ot, kRead, res.Timestamp, err)
	if err != nil {
		return false
	}
	if err := r.e.hist.checkRead(regObj(op.Reg), ot.start, res.Value); err != nil {
		l.violate(err)
	}
	return true
}

// finish stops the server once every commit is applied and, without a
// final snapshot, recovers a fresh server from the same log — newest
// snapshot plus WAL replay through the record codec. Each client, keeping
// its protocol state, then reads every register through the recovered
// server: each must hold its last acknowledged write, and the clients'
// version checks must accept the recovered state (a lost operation trips
// Algorithm 1's line-36 check).
func (r *regTCP) finish(res *result) error {
	errs := r.fails.all()
	if err := r.d.quiesce(5 * time.Second); err != nil {
		errs = append(errs, err)
	}
	r.close()
	if len(errs) > 0 {
		return errors.Join(errs...)
	}
	ps, err := store.Open(ustor.NewServer(rtClients), r.d.log, walStoreOptions)
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	snap, replayed := ps.Recovered()
	nw := transport.NewNetwork(rtClients, ps)
	defer nw.Stop()
	for i, c := range r.clients {
		c.Rebind(nw.ClientLink(i))
		for j := 0; j < rtClients; j++ {
			got, err := c.ReadX(context.Background(), j)
			if err != nil {
				return fmt.Errorf("recovery: client %d reading register %d: %w", i, j, err)
			}
			want, ok := r.e.hist.lastAcked(regObj(j))
			switch {
			case !ok && got.Value != nil:
				return fmt.Errorf("recovery: register %d holds a value nobody acknowledged", j)
			case ok && (got.Value == nil || !r.e.hist.sameValue(got.Value, want)):
				return fmt.Errorf("recovery: register %d lost its last acknowledged write", j)
			}
		}
	}
	res.notes = append(res.notes, fmt.Sprintf("recovery: a fresh server recovered the log without a final snapshot (snapshot restored: %v, WAL records replayed: %d); every register holds its last acknowledged write",
		snap, replayed))
	return nil
}

func (r *regTCP) close() {
	r.srv.Stop()
	for _, c := range r.clients {
		_ = c.Close()
	}
}
