// Kvstore walks through the authenticated key-value layer (package kv):
// a namespace of many keys with large, chunked values on top of a single
// fail-aware register per client.
//
// The demo shows, in order:
//
//  1. puts and gets, including a value large enough to split into
//     content-addressed chunks over the bulk blob channel;
//  2. authenticated cross-client reads and the two cache tiers (verified
//     chunk reuse, and CachedGetFrom's zero-round-trip hits);
//  3. a tampered chunk in the server's blob store being rejected by the
//     reader's digest check;
//  4. a forking server being detected THROUGH the KV API: the clients
//     only ever call Put/GetFrom, and the reader still halts with the
//     protocol's fail-aware detection error.
//
// Run with:
//
//	go run ./examples/kvstore
package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"

	"faust/internal/byzantine"
	"faust/internal/crypto"
	"faust/internal/kv"
	"faust/internal/transport"
	"faust/internal/ustor"
)

func main() {
	fmt.Println("=== 1. An authenticated KV namespace over one register ===")
	honest()
	fmt.Println("\n=== 2. A tampered chunk is rejected by the digest check ===")
	tampered()
	fmt.Println("\n=== 3. A forking server is detected through the KV API ===")
	forking()
}

// openStores builds n clients with kv stores over the given server core
// and a shared in-memory blob store.
func openStores(n int, core transport.ServerCore, opts ...kv.Option) ([]*ustor.Client, []*kv.Store, *transport.MemBlobs, func()) {
	ring, signers := crypto.NewTestKeyring(n, 7)
	blobs := transport.NewMemBlobs()
	nw := transport.NewNetwork(n, core, transport.WithBlobStore(blobs))
	clients := make([]*ustor.Client, n)
	stores := make([]*kv.Store, n)
	for i := 0; i < n; i++ {
		clients[i] = ustor.NewClient(i, ring, signers[i], nw.ClientLink(i))
		ch, err := nw.BlobChannel()
		if err != nil {
			log.Fatal(err)
		}
		if stores[i], err = kv.Open(clients[i], ch, opts...); err != nil {
			log.Fatal(err)
		}
	}
	return clients, stores, blobs, nw.Stop
}

func honest() {
	_, stores, _, stop := openStores(2, ustor.NewServer(2), kv.WithChunkSize(4<<10))
	defer stop()
	alice, bob := stores[0], stores[1]

	// Small values: one chunk, one register write each.
	must(alice.Put(context.Background(), "motd", []byte("hello from alice")))
	must(alice.Put(context.Background(), "config", []byte("retries=3")))

	// A large value: 40 KiB splits into ten 4 KiB content-addressed
	// chunks, uploaded over the bulk channel — the register only ever
	// carries the root record naming the directory tree's root hash.
	large := bytes.Repeat([]byte("0123456789abcdef"), 2560)
	must(alice.Put(context.Background(), "dataset", large))
	fmt.Printf("alice's namespace: %v (root %x...)\n", alice.Keys(), alice.Root()[:8])

	// Bob reads with full authentication: ReadX of alice's register,
	// then the tree path + chunks fetched, each node hash-checked
	// against the reference that named it.
	v, err := bob.GetFrom(context.Background(), 0, "motd")
	must(err)
	fmt.Printf("bob GetFrom(alice, motd) = %q\n", v)
	v, err = bob.GetFrom(context.Background(), 0, "dataset")
	must(err)
	fmt.Printf("bob GetFrom(alice, dataset) = %d bytes, intact=%v\n", len(v), bytes.Equal(v, large))

	// Repeat read: the root is unchanged, so the tree path comes from
	// the node cache and every chunk from the validating chunk cache —
	// one register round trip, zero blob traffic.
	before := bob.Stats()
	_, err = bob.GetFrom(context.Background(), 0, "dataset")
	must(err)
	after := bob.Stats()
	fmt.Printf("repeat GetFrom: +%d register reads, +%d blob fetches (chunks served from the validating cache)\n",
		after.RegisterReads-before.RegisterReads, after.BlobGets-before.BlobGets)

	// CachedGetFrom: no server round trip at all while bob's observed
	// version of alice's register is unchanged.
	before = bob.Stats()
	_, err = bob.CachedGetFrom(context.Background(), 0, "dataset")
	must(err)
	after = bob.Stats()
	fmt.Printf("CachedGetFrom: +%d register reads, +%d blob fetches (value cache hit)\n",
		after.RegisterReads-before.RegisterReads, after.BlobGets-before.BlobGets)
}

func tampered() {
	_, stores, blobs, stop := openStores(2, ustor.NewServer(2), kv.WithChunkSize(4<<10))
	defer stop()
	alice, bob := stores[0], stores[1]

	secret := bytes.Repeat([]byte("integrity matters "), 1000)
	must(alice.Put(context.Background(), "doc", secret))

	// The server controls its blob store and swaps one chunk's bytes.
	chunk := secret[4096:8192]
	must(blobs.PutBlob(crypto.Hash(chunk), []byte("malicious replacement")))

	_, err := bob.GetFrom(context.Background(), 0, "doc")
	fmt.Printf("bob GetFrom(alice, doc) after the swap: %v\n", err)
	fmt.Println("(an integrity error, not a halt — bulk data is unauthenticated, readers verify)")
}

func forking() {
	// The malicious server serves each client from an independent copy
	// of the state (the paper's forking attack).
	server, err := byzantine.NewForkingServer(2, [][]int{{0}, {1}})
	must(err)
	clients, stores, _, stop := openStores(2, server)
	defer stop()
	alice, bob := stores[0], stores[1]

	// The attacker replays alice's captured operations into bob's
	// branch to make her writes selectively visible — without their
	// COMMITs. The first replayed operation passes every check (weak
	// fork-linearizability permits it)...
	must(server.Replay(0, 0, 1))
	if _, err := bob.GetFrom(context.Background(), 0, "report"); errors.Is(err, kv.ErrNotFound) {
		fmt.Println("bob's first read: key not found (the fork is still invisible)")
	}

	// ...but the next hidden-then-replayed write has no commit of alice
	// in bob's branch to prove its predecessor (the line-41 check), and
	// bob's kv read detects the fork.
	must(alice.Put(context.Background(), "report", []byte("Q3 numbers")))
	must(server.Replay(0, server.CapturedOps(0)-1, 1))

	_, err = bob.GetFrom(context.Background(), 0, "report")
	var det *ustor.DetectionError
	if errors.As(err, &det) {
		fmt.Printf("bob's next KV read: DETECTED — %v\n", det)
	} else {
		log.Fatalf("expected detection, got %v", err)
	}
	if failed, _ := clients[1].Failed(); failed {
		fmt.Println("bob has halted; every further KV call fails:")
	}
	_, err = bob.GetFrom(context.Background(), 0, "report")
	fmt.Printf("  %v\n", err)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
