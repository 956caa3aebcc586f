package ustor

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"faust/internal/crypto"
	"faust/internal/transport"
	"faust/internal/version"
	"faust/internal/wire"
)

// piggyCluster builds a cluster whose clients all use COMMIT piggybacking
// (the Section 5 optimization).
func piggyCluster(t *testing.T, n int, opts ...transport.Option) (*transport.Network, []*Client, *Server) {
	t.Helper()
	ring, signers := crypto.NewTestKeyring(n, 4242)
	server := NewServer(n)
	nw := transport.NewNetwork(n, server, opts...)
	clients := make([]*Client, n)
	for i := 0; i < n; i++ {
		clients[i] = NewClient(i, ring, signers[i], nw.ClientLink(i), WithCommitPiggyback())
	}
	t.Cleanup(nw.Stop)
	return nw, clients, server
}

func TestPiggybackBasicFlow(t *testing.T) {
	_, clients, _ := piggyCluster(t, 2)
	for i := 0; i < 5; i++ {
		val := []byte(fmt.Sprintf("v%d", i))
		if err := clients[0].Write(val); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		got, err := clients[1].Read(0)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if string(got) != string(val) {
			t.Fatalf("read %d = %q, want %q", i, got, val)
		}
	}
}

func TestPiggybackHalvesClientMessages(t *testing.T) {
	nw, clients, _ := piggyCluster(t, 1, transport.WithMetrics())
	const ops = 20
	for i := 0; i < ops; i++ {
		if err := clients[0].Write([]byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	st := nw.Stats()
	// Exactly one client->server message per op: the COMMIT rides along.
	if st.ClientToServerMsgs != ops {
		t.Fatalf("client->server msgs = %d, want %d (one per op)", st.ClientToServerMsgs, ops)
	}
	if st.ServerToClientMsgs != ops {
		t.Fatalf("server->client msgs = %d, want %d", st.ServerToClientMsgs, ops)
	}
}

func TestPiggybackMixedWithPlainClients(t *testing.T) {
	const n = 3
	ring, signers := crypto.NewTestKeyring(n, 11)
	nw := transport.NewNetwork(n, NewServer(n))
	t.Cleanup(nw.Stop)
	piggy := NewClient(0, ring, signers[0], nw.ClientLink(0), WithCommitPiggyback())
	plain1 := NewClient(1, ring, signers[1], nw.ClientLink(1))
	plain2 := NewClient(2, ring, signers[2], nw.ClientLink(2))

	for i := 0; i < 5; i++ {
		if err := piggy.Write([]byte(fmt.Sprintf("p%d", i))); err != nil {
			t.Fatalf("piggy write: %v", err)
		}
		if err := plain1.Write([]byte(fmt.Sprintf("q%d", i))); err != nil {
			t.Fatalf("plain write: %v", err)
		}
		v, err := plain2.Read(0)
		if err != nil {
			t.Fatalf("read of piggyback register: %v", err)
		}
		if string(v) != fmt.Sprintf("p%d", i) {
			t.Fatalf("read = %q", v)
		}
		w, err := piggy.Read(1)
		if err != nil {
			t.Fatalf("piggy read: %v", err)
		}
		if string(w) != fmt.Sprintf("q%d", i) {
			t.Fatalf("piggy read = %q", w)
		}
	}
}

func TestPiggybackConcurrentClientsStayConsistent(t *testing.T) {
	const n, ops = 4, 20
	_, clients, _ := piggyCluster(t, n)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var versions []version.Version
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				res, err := clients[c].WriteX(context.Background(), []byte(fmt.Sprintf("c%d-%d", c, i)))
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				mu.Lock()
				versions = append(versions, res.Version.Ver)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	for i := range versions {
		for j := i + 1; j < len(versions); j++ {
			if !version.Comparable(versions[i], versions[j]) {
				t.Fatalf("piggyback mode produced incomparable versions:\n%v\n%v",
					versions[i], versions[j])
			}
		}
	}
}

func TestPiggybackFlush(t *testing.T) {
	_, clients, server := piggyCluster(t, 1)
	if err := clients[0].Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	// The op's COMMIT is still pending; L holds the tuple.
	if got := server.PendingOps(); got != 1 {
		t.Fatalf("PendingOps = %d, want 1 before flush", got)
	}
	if err := clients[0].Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	// Synchronize: one more op round-trip guarantees the commit was
	// processed (FIFO), then flush again.
	if err := clients[0].Write([]byte("y")); err != nil {
		t.Fatal(err)
	}
	if err := clients[0].Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := clients[0].Read(0); err != nil {
		t.Fatal(err)
	}
	if got := server.PendingOps(); got > 1 {
		t.Fatalf("PendingOps = %d after flush+op", got)
	}
}

func TestFlushNoOpOnPlainClient(t *testing.T) {
	ring, signers := crypto.NewTestKeyring(1, 12)
	nw := transport.NewNetwork(1, NewServer(1))
	t.Cleanup(nw.Stop)
	c := NewClient(0, ring, signers[0], nw.ClientLink(0))
	if err := c.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("flush on plain client: %v", err)
	}
}

func TestSubmitWithPiggybackCodecRoundTrip(t *testing.T) {
	s := &wire.Submit{
		T:     3,
		Inv:   wire.Invocation{Client: 0, Op: wire.OpWrite, Reg: 0, SubmitSig: []byte("sig")},
		Value: []byte("v"),
		Piggyback: &wire.Commit{
			Ver:       version.New(2),
			CommitSig: []byte("c"),
		},
	}
	data := wire.Encode(s)
	back, err := wire.Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	got := back.(*wire.Submit)
	if got.Piggyback == nil || string(got.Piggyback.CommitSig) != "c" {
		t.Fatalf("piggyback lost in codec: %+v", got)
	}
}
