package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/service"
	"repro/internal/service/client"
)

const (
	testWarmup  = 1_000
	testMeasure = 4_000
)

// startShards brings up n real service instances and a fleet front over
// them, returning the front plus the underlying servers (for Drain) and
// their test listeners (for kills).
func startShards(t *testing.T, n int) (*Runner, []*service.Server, []*httptest.Server) {
	t.Helper()
	urls := make([]string, n)
	srvs := make([]*service.Server, n)
	tss := make([]*httptest.Server, n)
	for i := 0; i < n; i++ {
		srv, err := service.New(service.Options{Warmup: testWarmup, Measure: testMeasure})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		t.Cleanup(func() { ts.Close(); srv.Close() })
		urls[i], srvs[i], tss[i] = ts.URL, srv, ts
	}
	f, err := newRunner(urls, -1) // probes on demand only
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f, srvs, tss
}

func refRecords(t *testing.T, specs []harness.Spec) []harness.Record {
	t.Helper()
	se := harness.NewSession(testWarmup, testMeasure)
	recs, err := se.Records(specs, 1)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestFleetSimulateAndBatch: routed results are byte-identical to a local
// session, Batch delivers in spec order, and the work really spreads — with
// the fig4 spec set over two shards, both end up with simulations.
func TestFleetSimulateAndBatch(t *testing.T) {
	f, _, tss := startShards(t, 2)
	ctx := context.Background()
	specs := harness.Fig4Specs()[:24]
	want := refRecords(t, specs)

	rec, err := f.Simulate(ctx, specs[1])
	if err != nil {
		t.Fatal(err)
	}
	if a, b := mustJSON(t, rec), mustJSON(t, want[1]); !bytes.Equal(a, b) {
		t.Errorf("Simulate record differs:\n got %s\nwant %s", a, b)
	}

	var got []harness.Record
	if err := f.Batch(ctx, specs, func(r harness.Record) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if a, b := mustJSON(t, got), mustJSON(t, want); !bytes.Equal(a, b) {
		t.Errorf("Batch records differ from local session:\n got %s\nwant %s", a, b)
	}

	// Both shards simulated something: the scatter really sharded.
	for i, ts := range tss {
		st, err := client.New(ts.URL).Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.MemoMisses == 0 {
			t.Errorf("shard %d ran no simulations: scatter did not shard", i)
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFleetFailoverDeadShard: a fleet with one dead member still answers
// everything (work re-routes to the survivor) and the dead shard is marked
// down for the status view.
func TestFleetFailoverDeadShard(t *testing.T) {
	f, _, tss := startShards(t, 2)
	ctx := context.Background()
	specs := harness.Fig4Specs()[:12]
	want := refRecords(t, specs)

	tss[0].Close() // kill one shard before any traffic

	var got []harness.Record
	if err := f.Batch(ctx, specs, func(r harness.Record) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if a, b := mustJSON(t, got), mustJSON(t, want); !bytes.Equal(a, b) {
		t.Errorf("records differ after failover:\n got %s\nwant %s", a, b)
	}

	f.ProbeOnce(ctx)
	states := f.Shards()
	if states[0].State != StateDown {
		t.Errorf("dead shard state = %s, want %s (%+v)", states[0].State, StateDown, states)
	}
	if states[1].State != StateUp {
		t.Errorf("surviving shard state = %s, want %s", states[1].State, StateUp)
	}
}

// TestFleetDrainAwareRouting: once a shard drains, probing marks it and new
// work lands only on the survivors — while results stay identical.
func TestFleetDrainAwareRouting(t *testing.T) {
	f, srvs, _ := startShards(t, 2)
	ctx := context.Background()
	dctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := srvs[0].Drain(dctx); err != nil {
		t.Fatal(err)
	}
	f.ProbeOnce(ctx)
	if st := f.Shards()[0].State; st != StateDraining {
		t.Fatalf("drained shard state = %s, want %s", st, StateDraining)
	}

	specs := harness.Fig4Specs()[:8]
	want := refRecords(t, specs)
	var got []harness.Record
	if err := f.Batch(ctx, specs, func(r harness.Record) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if a, b := mustJSON(t, got), mustJSON(t, want); !bytes.Equal(a, b) {
		t.Errorf("records differ through drain:\n got %s\nwant %s", a, b)
	}
}

// TestFleetPerSpecFailureAttribution: a bad spec inside a frame fails the
// batch with that spec's index, not a whole-frame mystery — the bisect path.
func TestFleetPerSpecFailureAttribution(t *testing.T) {
	f, _, _ := startShards(t, 2)
	ctx := context.Background()
	// Index 2 names a program no shard has: a real per-spec failure that
	// re-routing must not mask.
	specs := []harness.Spec{
		{Kernel: "gzip", Predictor: "none"},
		{Kernel: "gzip", Predictor: "lvp"},
		{Kernel: "prog:" + string(bytes.Repeat([]byte("ab"), 32)), Predictor: "lvp"},
		{Kernel: "art", Predictor: "none"},
	}
	err := f.Batch(ctx, specs, func(harness.Record) error { return nil })
	if err == nil {
		t.Fatal("batch with an unknown program succeeded")
	}
	if want := "spec 2:"; !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Errorf("error %q does not attribute the failure to spec 2", err)
	}
}

// TestNewRejectsUndialableShardURLs: a shard URL net/http cannot dial is a
// configuration error named at construction, not a shard that is marked
// down on first use while the fleet silently runs on the others.
func TestNewRejectsUndialableShardURLs(t *testing.T) {
	for _, bad := range []string{
		" http://127.0.0.1:2", // the second entry of "-shards 'a, b'"
		"http://127.0.0.1:2 ",
		"127.0.0.1:2",
		"ftp://127.0.0.1:2",
		"http://",
		"",
	} {
		f, err := New([]string{"http://127.0.0.1:1", bad})
		if err == nil {
			f.Close()
			t.Errorf("New accepted shard URL %q", bad)
			continue
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("%q", bad)) {
			t.Errorf("error for %q does not name the URL: %v", bad, err)
		}
	}
	f, err := New([]string{"http://127.0.0.1:1", "https://example.test:8437/"})
	if err != nil {
		t.Fatalf("well-formed shard URLs rejected: %v", err)
	}
	f.Close()
	if _, err := New([]string{"http://127.0.0.1:1", "http://127.0.0.1:1"}); err == nil {
		t.Error("duplicate shard URL accepted")
	}
}
