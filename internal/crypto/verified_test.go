package crypto

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"sync"
	"testing"
)

// verifyCounts reads the real-verification and cache-hit counters.
func verifyCounts() (verifies, hits int64) {
	return verifyNs.Snapshot().Count, verifiedHits.Value()
}

func TestVerifiedCacheBindsWholeTriple(t *testing.T) {
	ring, signers := NewTestKeyring(3, 21)
	payload := []byte("commit payload")
	sig := signers[0].Sign(DomainCommit, payload)
	if !ring.Verify(0, sig, DomainCommit, payload) {
		t.Fatal("valid signature rejected")
	}
	if !ring.Verify(0, sig, DomainCommit, payload) {
		t.Fatal("cached valid signature rejected")
	}

	flipped := append([]byte(nil), sig...)
	flipped[17] ^= 0x01
	otherPayload := append([]byte(nil), payload...)
	otherPayload[0] ^= 0x01
	cases := []struct {
		name    string
		signer  int
		sig     []byte
		domain  byte
		payload []byte
	}{
		{"flipped signature byte", 0, flipped, DomainCommit, payload},
		{"different payload", 0, sig, DomainCommit, otherPayload},
		{"different domain", 0, sig, DomainSubmit, payload},
		{"another signer index", 1, sig, DomainCommit, payload},
	}
	for _, c := range cases {
		// Twice: a rejection must not become an acceptance on a re-check.
		for round := 0; round < 2; round++ {
			if ring.Verify(c.signer, c.sig, c.domain, c.payload) {
				t.Fatalf("%s (round %d): accepted after the original triple was cached", c.name, round)
			}
		}
	}
	if !ring.Verify(0, sig, DomainCommit, payload) {
		t.Fatal("original triple no longer accepted")
	}
}

func TestVerifiedCacheNeverCachesRejections(t *testing.T) {
	ring, signers := NewTestKeyring(2, 22)
	payload := []byte("submit payload")
	forged := signers[1].Sign(DomainSubmit, payload) // signed by 1, claimed by 0
	v0, h0 := verifyCounts()
	for i := 0; i < 2; i++ {
		if ring.Verify(0, forged, DomainSubmit, payload) {
			t.Fatalf("forged signature accepted on check %d", i)
		}
	}
	v1, h1 := verifyCounts()
	if v1-v0 != 2 || h1-h0 != 0 {
		t.Fatalf("two checks of a forgery: %d real verifications and %d hits, want 2 and 0", v1-v0, h1-h0)
	}
	if n := ring.verified.len(); n != 0 {
		t.Fatalf("cache holds %d entries after only rejections", n)
	}
}

func TestVerifiedCacheBounded(t *testing.T) {
	var c verifiedCache
	var last verifiedKey
	var ctr [8]byte
	for i := 0; i < 10*verifiedCapacity; i++ {
		binary.BigEndian.PutUint64(ctr[:], uint64(i))
		last = sha256.Sum256(ctr[:])
		c.insert(&last)
		if n := c.len(); n > verifiedCapacity {
			t.Fatalf("after %d inserts the cache holds %d keys, capacity %d", i+1, n, verifiedCapacity)
		}
	}
	if !c.contains(&last) {
		t.Fatal("most recent insert was evicted")
	}
	c.insert(&last) // a duplicate insert must not take a second slot
	if n := c.len(); n > verifiedCapacity {
		t.Fatalf("cache holds %d keys, capacity %d", n, verifiedCapacity)
	}
}

func TestVerifiedCacheConcurrentAgreesWithEd25519(t *testing.T) {
	ring, signers := NewTestKeyring(4, 23)
	// More triples than the cache holds, so goroutines race inserts
	// against evictions as well as lookups; every third one is forged.
	type triple struct {
		signer  int
		sig     []byte
		payload []byte
		want    bool
	}
	triples := make([]triple, verifiedCapacity+verifiedCapacity/2)
	for i := range triples {
		signer := i % len(signers)
		payload := []byte{byte(i), byte(i >> 8), 0x5A}
		by := signer
		if i%3 == 0 {
			by = (signer + 1) % len(signers)
		}
		sig := signers[by].Sign(DomainSubmit, payload)
		msg := append([]byte{DomainSubmit}, payload...)
		triples[i] = triple{signer, sig, payload, ed25519.Verify(ring.pubs[signer], msg, sig)}
	}

	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				idx := (i*7 + g*13) % len(triples) // cold: spread over all
				if i%2 == 0 {
					idx = (i + g) % 24 // hot: shared with other goroutines
				}
				tr := triples[idx]
				if got := ring.Verify(tr.signer, tr.sig, DomainSubmit, tr.payload); got != tr.want {
					errs <- "keyring disagrees with ed25519.Verify"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestVerifiedCacheCounters(t *testing.T) {
	ring, signers := NewTestKeyring(2, 24)
	payload := []byte("submit payload")
	valid := signers[0].Sign(DomainSubmit, payload)
	forged := signers[1].Sign(DomainSubmit, payload)
	steps := []struct {
		sig  []byte
		want bool
	}{
		{valid, true},   // miss: real verification, inserted
		{valid, true},   // hit
		{forged, false}, // miss: real verification, not inserted
		{forged, false}, // miss again
		{valid, true},   // hit
	}
	v0, h0 := verifyCounts()
	for i, s := range steps {
		if got := ring.Verify(0, s.sig, DomainSubmit, payload); got != s.want {
			t.Fatalf("step %d: Verify = %v, want %v", i, got, s.want)
		}
	}
	v1, h1 := verifyCounts()
	if v1-v0 != 3 || h1-h0 != 2 {
		t.Fatalf("faust_ed25519_verify_ns moved by %d and faust_verify_cache_hits_total by %d, want 3 and 2", v1-v0, h1-h0)
	}
}

// VerifyUncached gives Verify's verdicts but never touches the cache: it
// inserts nothing, and it verifies for real even a triple the cache
// holds.
func TestVerifyUncachedBypassesCache(t *testing.T) {
	ring, signers := NewTestKeyring(2, 25)
	nonce := []byte("one-shot nonce")
	valid := signers[0].Sign(DomainHello, nonce)
	forged := signers[1].Sign(DomainHello, nonce)
	v0, h0 := verifyCounts()
	if !ring.VerifyUncached(0, valid, DomainHello, nonce) {
		t.Fatal("valid signature rejected")
	}
	if ring.VerifyUncached(0, forged, DomainHello, nonce) || ring.VerifyUncached(0, valid, DomainHello, []byte("other nonce")) {
		t.Fatal("forged signature accepted")
	}
	if ring.VerifyUncached(2, valid, DomainHello, nonce) || ring.VerifyUncached(0, valid[:10], DomainHello, nonce) {
		t.Fatal("malformed input accepted")
	}
	if n := ring.verified.len(); n != 0 {
		t.Fatalf("VerifyUncached left %d cache entries", n)
	}
	if !ring.Verify(0, valid, DomainHello, nonce) || ring.verified.len() != 1 {
		t.Fatal("Verify did not cache the accepted triple")
	}
	if !ring.VerifyUncached(0, valid, DomainHello, nonce) {
		t.Fatal("valid signature rejected")
	}
	if v1, h1 := verifyCounts(); v1-v0 != 5 || h1 != h0 {
		t.Fatalf("%d real verifications and %d cache hits, want 5 and 0", v1-v0, h1-h0)
	}
}

// len returns the number of keys held.
func (c *verifiedCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sets == nil {
		return 0
	}
	n := 0
	for i := range c.sets {
		n += int(c.sets[i].used)
	}
	return n
}

// BenchmarkVerify prices the cache against a bare ed25519.Verify on a
// payload the size of an n=8 COMMIT payload: "miss" is a first check of a
// valid triple (key hash, lookup, verification, insert), "hit" a re-check.
// miss minus bare is all the cache adds to a signature it never sees
// again.
func BenchmarkVerify(b *testing.B) {
	ring, signers := NewTestKeyring(2, 25)
	// Four times the capacity, checked round-robin: FIFO sets evict every
	// triple long before it comes round again, so each check misses.
	triples := make([][2][]byte, 4*verifiedCapacity)
	for i := range triples {
		payload := make([]byte, 320)
		binary.BigEndian.PutUint32(payload, uint32(i))
		triples[i] = [2][]byte{payload, signers[0].Sign(DomainCommit, payload)}
	}
	b.Run("bare", func(b *testing.B) {
		b.ReportAllocs()
		var msg []byte
		for i := 0; i < b.N; i++ {
			tr := triples[i%len(triples)]
			msg = append(append(msg[:0], DomainCommit), tr[0]...)
			if !ed25519.Verify(ring.pubs[0], msg, tr[1]) {
				b.Fatal("rejected")
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr := triples[i%len(triples)]
			if !ring.Verify(0, tr[1], DomainCommit, tr[0]) {
				b.Fatal("rejected")
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		tr := triples[0]
		ring.Verify(0, tr[1], DomainCommit, tr[0])
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !ring.Verify(0, tr[1], DomainCommit, tr[0]) {
				b.Fatal("rejected")
			}
		}
	})
}
