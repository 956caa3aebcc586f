package obs_test

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"faust/internal/byzantine"
	"faust/internal/crypto"
	"faust/internal/faustproto"
	"faust/internal/obs"
	"faust/internal/offline"
	"faust/internal/store"
	"faust/internal/transport"
	"faust/internal/ustor"
)

// TestMetricsEndpointEndToEnd drives a real deployment shape — WAL-backed
// USTOR server over TCP, plus a forked pair of FAUST clients reporting to
// the default registry — then scrapes /metrics and validates the
// exposition: parseable Prometheus text carrying op-latency histograms,
// WAL fsync timings and the fork/fail event counters.
func TestMetricsEndpointEndToEnd(t *testing.T) {
	const n = 2
	ring, signers := crypto.NewTestKeyring(n, 42)

	// WAL-backed server over TCP with fsync, so faust_wal_fsync_ns flows.
	backend, err := store.OpenFile(t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := store.Open(ustor.NewServer(n), backend, store.Options{SnapshotEvery: 0})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.ServeTCP(ln, ps)
	defer func() {
		srv.Stop()
		_ = ps.Close()
	}()
	clients := make([]*ustor.Client, n)
	for i := range clients {
		link, err := transport.DialTCPShard(ln.Addr().String(), "", i)
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = ustor.NewClient(i, ring, signers[i], link)
	}
	for round := 0; round < 10; round++ {
		for i, c := range clients {
			if err := c.Write([]byte(fmt.Sprintf("w-%d-%d", i, round))); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Read((i + 1) % n); err != nil {
				t.Fatal(err)
			}
		}
	}

	// A forked FAUST pair on the in-memory transport, reporting to the
	// default registry: fork-detected and fail-notification counters.
	forking, err := byzantine.NewForkingServer(n, [][]int{{0}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	fnet := transport.NewNetwork(n, forking)
	defer fnet.Stop()
	hub := offline.NewHub(n)
	defer hub.Stop()
	cfg := faustproto.Config{ProbeTimeout: 50 * time.Millisecond, PollInterval: 10 * time.Millisecond, DisableDummyReads: true}
	fclients := make([]*faustproto.Client, n)
	for i := range fclients {
		fclients[i] = faustproto.NewClient(i, ring, signers[i], fnet.ClientLink(i), hub.Endpoint(i), faustproto.WithConfig(cfg))
		fclients[i].Start()
	}
	for i, c := range fclients {
		if _, err := c.Write([]byte(fmt.Sprintf("branch-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i, c := range fclients {
		if err := c.WaitFail(10 * time.Second); err != nil {
			t.Fatalf("client %d: fork never detected: %v", i, err)
		}
	}
	for _, c := range fclients {
		c.Stop()
	}

	// Scrape.
	mln, mshut, err := obs.Serve("127.0.0.1:0", obs.Default())
	if err != nil {
		t.Fatal(err)
	}
	defer mshut()
	resp, err := http.Get("http://" + mln.Addr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	// Every sample line parses as `name{labels} value`.
	samples := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		samples[line[:sp]] = v
	}

	mustPositive := func(key string) {
		t.Helper()
		if samples[key] <= 0 {
			t.Fatalf("%s = %v, want > 0\nexposition:\n%s", key, samples[key], text)
		}
	}
	// Server-side op latency histograms (TCP dispatcher).
	mustPositive(`faust_ustor_op_latency_ns_count{op="submit"}`)
	mustPositive(`faust_ustor_op_latency_ns_count{op="commit"}`)
	// Client-observed round trips, with visible tail quantiles.
	mustPositive(`faust_client_op_latency_ns_count{op="write"}`)
	mustPositive(`faust_client_op_latency_ns_p99{op="write"}`)
	// WAL fsync timings from the persistent server.
	mustPositive(`faust_wal_fsync_ns_count`)
	mustPositive(`faust_wal_appends_total`)
	mustPositive(`faust_wal_flushes_total`)
	// Protocol events from the forked pair.
	mustPositive(`faust_events_total{kind="fork-detected"}`)
	mustPositive(`faust_events_total{kind="fail-notification"}`)
	// Transport accounting.
	mustPositive(`faust_transport_frames_total{dir="in"}`)
	mustPositive(`faust_transport_handshakes_total{result="accepted"}`)
	for _, typ := range []string{
		"# TYPE faust_ustor_op_latency_ns histogram",
		"# TYPE faust_wal_fsync_ns histogram",
		"# TYPE faust_events_total counter",
	} {
		if !strings.Contains(text, typ+"\n") {
			t.Fatalf("missing %q in exposition", typ)
		}
	}

	// The /events endpoint serves the same log as JSON.
	eresp, err := http.Get("http://" + mln.Addr().String() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	edata, err := io.ReadAll(eresp.Body)
	_ = eresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(edata), string(obs.EventFork)) {
		t.Fatalf("/events misses the fork event: %s", edata)
	}
}
