package faust

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"testing"

	"faust/internal/crypto"
	"faust/internal/store"
	"faust/internal/transport"
	"faust/internal/ustor"
)

// startPersistentTCP boots a persistent USTOR server over TCP from dir,
// recovering whatever state the directory holds.
func startPersistentTCP(t *testing.T, dir string, n int, opts store.Options) (*transport.TCPServer, *store.Persistent, string) {
	t.Helper()
	backend, err := store.OpenFile(dir, false)
	if err != nil {
		t.Fatalf("opening backend: %v", err)
	}
	ps, err := store.Open(ustor.NewServer(n), backend, opts)
	if err != nil {
		t.Fatalf("recovering server: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return transport.ServeTCP(ln, ps), ps, ln.Addr().String()
}

func dialAll(t *testing.T, addr string, clients []*ustor.Client) {
	t.Helper()
	for i, c := range clients {
		link, err := transport.DialTCPShard(addr, "", i)
		if err != nil {
			t.Fatalf("client %d dial: %v", i, err)
		}
		c.Rebind(link)
	}
}

// TestPersistentServerKillRestartRecovery is the paper-meets-production
// scenario the store subsystem exists for: a FileBackend server killed
// mid-workload recovers its exact pre-crash MEM/SVER/L/P state, and the
// clients — who keep their own protocol state — resume and complete their
// workload with no fail signal.
func TestPersistentServerKillRestartRecovery(t *testing.T) {
	const n, rounds = 3, 5
	dir := t.TempDir()
	ring, signers := crypto.NewTestKeyring(n, 61)

	srv, ps, addr := startPersistentTCP(t, dir, n, store.Options{SnapshotEvery: 8})
	// Piggyback mode makes every client->server message synchronous (the
	// COMMIT rides the next SUBMIT, and SUBMITs await their REPLY), so
	// stopping the server between operations loses no in-flight messages
	// and the kill is a clean cut. With separate async COMMITs a kill can
	// swallow a sent-but-unprocessed COMMIT — which IS a rollback, and the
	// clients would rightly flag it; the rollback test below covers that
	// side.
	clients := make([]*ustor.Client, n)
	for i := range clients {
		clients[i] = ustor.NewClient(i, ring, signers[i], nil, ustor.WithCommitPiggyback())
	}
	dialAll(t, addr, clients)

	workload := func(phase string) {
		for r := 0; r < rounds; r++ {
			for i, c := range clients {
				if err := c.Write([]byte(fmt.Sprintf("%s-%d-%d", phase, i, r))); err != nil {
					t.Fatalf("%s: client %d write: %v", phase, i, err)
				}
			}
			for i, c := range clients {
				v, err := c.Read((i + 1) % n)
				if err != nil {
					t.Fatalf("%s: client %d read: %v", phase, i, err)
				}
				want := fmt.Sprintf("%s-%d-%d", phase, (i+1)%n, r)
				if string(v) != want {
					t.Fatalf("%s: client %d read %q, want %q", phase, i, v, want)
				}
			}
		}
	}

	workload("pre")
	// Kill the server mid-workload. Stop drains the dispatcher, so the
	// exported state is exactly what made it into the WAL; Close without a
	// snapshot makes the next boot take the full recovery path.
	srv.Stop()
	preCrash := ps.ExportState()
	if err := ps.Close(); err != nil {
		t.Fatalf("closing backend: %v", err)
	}

	srv2, ps2, addr2 := startPersistentTCP(t, dir, n, store.Options{SnapshotEvery: 8})
	t.Cleanup(srv2.Stop)
	if got := ps2.ExportState(); !bytes.Equal(got, preCrash) {
		t.Fatal("recovered state is not bit-identical to the pre-crash state")
	}
	fromSnap, replayed := ps2.Recovered()
	t.Logf("recovered: snapshot=%v, %d WAL records replayed", fromSnap, replayed)
	if !fromSnap && replayed == 0 {
		t.Fatal("recovery found nothing to recover; the workload was not persisted")
	}

	dialAll(t, addr2, clients)
	workload("post")
	for i, c := range clients {
		if failed, reason := c.Failed(); failed {
			t.Fatalf("client %d output fail against the honestly recovered server: %v", i, reason)
		}
	}
}

// TestPersistentServerRollbackDetected ties durability back to the
// fail-awareness guarantee: an attacker who truncates the WAL (rolling the
// server back to an older state) produces a perfectly valid-looking log,
// the server recovers without complaint — and the clients' Algorithm 1
// checks expose the rollback as a server fault on their next operations.
func TestPersistentServerRollbackDetected(t *testing.T) {
	const n = 3
	dir := t.TempDir()
	ring, signers := crypto.NewTestKeyring(n, 62)

	// SnapshotEvery 0: everything stays in the WAL for the attacker to cut.
	srv, ps, addr := startPersistentTCP(t, dir, n, store.Options{})
	clients := make([]*ustor.Client, n)
	for i := range clients {
		clients[i] = ustor.NewClient(i, ring, signers[i], nil)
	}
	dialAll(t, addr, clients)

	for r := 0; r < 4; r++ {
		for i, c := range clients {
			if err := c.Write([]byte(fmt.Sprintf("w-%d-%d", i, r))); err != nil {
				t.Fatalf("client %d write: %v", i, err)
			}
		}
	}
	srv.Stop()
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}

	// The attack: drop the second half of the log at a record boundary.
	remaining, err := store.RollbackWAL(dir, 12)
	if err != nil {
		t.Fatalf("rollback: %v", err)
	}
	t.Logf("attacker truncated WAL to %d records", remaining)

	// The server itself cannot tell: recovery succeeds silently.
	srv2, _, addr2 := startPersistentTCP(t, dir, n, store.Options{})
	t.Cleanup(srv2.Stop)
	dialAll(t, addr2, clients)

	failures := 0
	for i, c := range clients {
		err := c.Write([]byte(fmt.Sprintf("probe-%d", i)))
		var det *ustor.DetectionError
		if errors.As(err, &det) {
			t.Logf("client %d output fail: %v", i, det)
			failures++
		} else if err != nil {
			t.Fatalf("client %d: unexpected non-detection error: %v", i, err)
		}
	}
	if failures == 0 {
		t.Fatal("no client detected the rolled-back server: fail-awareness broken")
	}
}
