package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/harness"
	"repro/internal/service"
	"repro/internal/service/client"
)

// The fleet-serve shape: two shards of one worker each; every caller replays
// the spec set fleetLaps times in frames of fleetFrame specs. Only the first
// lap holds misses, so with fleetLaps = 50 the p99 frame latency of a round
// (1% of its 9900 frames, half of its 198 first-lap frames beyond it) is the
// median miss frame, and the median frame is a warm hit. Miss frames vary
// widely (a frame may wait for up to two of its own simulations and the
// other caller's), so small frames are used to have many of them; a round
// stays below the 10000 frames at which the tail would move to p99.9.
//
// The repository's own callers send a whole sweep as one Batch, which the
// fleet splits into one multi-spec batch-sync frame per shard. After its
// laps every caller therefore sends fleetSweeps warm whole-spec-set Batch
// calls. Their records count in the round's specs_per_s; their latencies are
// kept apart from the frames' (result file: sweep_ms, sweep_share; traced:
// fleet.sweep_us_per_spec), so the frame percentiles keep their meaning.
const (
	fleetShards = 2
	fleetLaps   = 50
	fleetFrame  = 2
	fleetSweeps = 100
)

// benchShard is one in-process service shard on a loopback listener.
type benchShard struct {
	srv  *service.Server
	http *http.Server
	url  string
	done chan struct{}
}

// startShards stands up n fresh shards, the same handler vpserved serves.
func startShards(n int) ([]*benchShard, error) {
	var out []*benchShard
	for i := 0; i < n; i++ {
		srv, err := service.New(service.Options{Warmup: warmup, Measure: measure, Workers: 1, ShardID: fmt.Sprintf("vpbench-%d", i)})
		if err != nil {
			stopShards(out)
			return nil, err
		}
		ln, err := listenShard(i)
		if err != nil {
			srv.Close()
			stopShards(out)
			return nil, err
		}
		s := &benchShard{srv: srv, http: &http.Server{Handler: srv}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
		go func() {
			defer close(s.done)
			s.http.Serve(ln)
		}()
		out = append(out, s)
	}
	return out, nil
}

// shardBasePort is where the shards' loopback ports start. The fleet's ring
// hashes shard URLs, so ephemeral ports would give every round a different
// split of the specs between the shards; fixed ports keep the split, and
// with it the miss load per shard, the same from run to run.
const shardBasePort = 39517

// listenShard listens on shard i's fixed port, or on the next free one of
// its sequence when another process holds it. Another port gives another
// split of the specs, so the run says so on standard error and its result
// file's shard_urls differ, which vpbench compare refuses.
func listenShard(i int) (net.Listener, error) {
	var err error
	for k := 0; k < 50; k++ {
		var ln net.Listener
		port := shardBasePort + i + k*fleetShards
		ln, err = net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
		if err == nil {
			if k > 0 {
				fmt.Fprintf(os.Stderr, "vpbench: port %d is taken, shard %d listens on %d: the specs split differently between the shards\n", shardBasePort+i, i, port)
			}
			return ln, nil
		}
	}
	return nil, err
}

// stopShards closes every shard and waits for its server loop to end.
func stopShards(shards []*benchShard) {
	for _, s := range shards {
		s.http.Close()
		<-s.done
		s.srv.Close()
	}
}

func shardURLs(shards []*benchShard) []string {
	var urls []string
	for _, s := range shards {
		urls = append(urls, s.url)
	}
	return urls
}

// openFleet is one fleet-serve set-up: fresh shards, a sharded runner over
// them, and the seed's programs registered on every shard.
func (rc *runCtx) openFleet(ctx context.Context) ([]*benchShard, *repro.ShardedRunner, error) {
	ws, err := newWorkloadSet(rc.seed)
	if err != nil {
		return nil, nil, err
	}
	shards, err := startShards(fleetShards)
	if err != nil {
		return nil, nil, err
	}
	r, err := repro.OpenShardedRunner(repro.RunnerOptions{Shards: shardURLs(shards)})
	if err != nil {
		stopShards(shards)
		return nil, nil, err
	}
	for _, p := range ws.programs {
		if _, err := r.RegisterProgram(ctx, p); err != nil {
			r.Close()
			stopShards(shards)
			return nil, nil, err
		}
	}
	return shards, r, nil
}

// fleetFrameRun is one Batch call a caller made: a frame of a lap, or a
// whole-spec-set sweep.
type fleetFrameRun struct {
	lap   int
	sweep bool
	specs []harness.Spec
	recs  []harness.Record
	err   error
	lat   time.Duration
}

// fleetRound is one fresh fleet driven through every lap and sweep.
type fleetRound struct {
	frames []fleetFrameRun // dropped once tallied
	wall   time.Duration
	urls   string // the shards' URLs, which decide the ring's split
	stats  []service.ServerStats
	memo   []repro.MemoStats
	owners [][]int // spec indices each shard owns; traced runs only
	queued int     // highest queued_tasks seen on any shard

	frameCount, missFrames int
	sweepLat               []time.Duration
}

// runFleet is the fleet-serve workload. Set-up simulates the spec set by
// direct emu/pipeline calls, the reference every record is compared with.
// Each round then starts fresh shards behind OpenShardedRunner, and closed-
// loop callers replay the spec set in fixed-size Batch frames: the first lap
// simulates every spec once on its owning shard, coalescing the other
// caller's in-flight duplicates, and later laps are warm batch-sync hits.
// Warm whole-spec-set sweeps end the round.
func runFleet(ctx context.Context, rc *runCtx) error {
	ws, err := newWorkloadSet(rc.seed)
	if err != nil {
		return err
	}
	rc.ws = ws
	// Set-up costs milliseconds, so it is timed setupSamples times in the
	// fresh process, after setupWarmups untimed ones and before the
	// reference and the rounds fill the heap.
	var setups []time.Duration
	for i := 0; len(setups) < setupSamples; i++ {
		t0 := time.Now()
		shards, r, err := rc.openFleet(ctx)
		if err != nil {
			return err
		}
		d := time.Since(t0)
		r.Close()
		stopShards(shards)
		if i >= setupWarmups {
			setups = append(setups, d)
		}
	}

	t0 := time.Now()
	runs, traces, err := direct(ctx, ws, runtime.NumCPU(), rc.rec)
	if err != nil {
		return err
	}
	ref, err := referenceRecords(runs)
	if err != nil {
		return err
	}
	rc.info["reference_s"] = time.Since(t0).Seconds()
	rc.setReference(ref, runs)

	chk := &checker{ref: ref}
	var rounds []*fleetRound
	timed := rc.host.mark()
	var windows []window
	for round := 0; round < repeats(rc, rounds, func(fr *fleetRound) time.Duration { return fr.wall }); round++ {
		runtime.GC() // start every round from the same heap
		shards, r, err := rc.openFleet(ctx)
		if err != nil {
			return err
		}
		fr := &fleetRound{urls: strings.Join(shardURLs(shards), ",")}
		err = fleetServe(ctx, rc, r, shards, fr, uint64(round))
		if err == nil && rc.traced && round == 0 {
			err = rc.probeFleet(ctx, r, shards, fr)
		}
		r.Close()
		stopShards(shards)
		if err != nil {
			return err
		}
		windows = append(windows, rc.tally(fr, chk))
		rounds = append(rounds, fr)
	}
	if chk.firstBad != "" {
		rc.fail("first mismatch: %s", chk.firstBad)
	}
	rc.endToEnd(setups, windows, rc.host.slowdown(timed))
	var frames, misses int
	var sweepMs, sweepShare, sweepUs []float64
	urls := map[string]bool{}
	for _, fr := range rounds {
		frames += fr.frameCount
		misses += fr.missFrames
		var busy time.Duration
		for _, d := range fr.sweepLat {
			busy += d
			sweepUs = append(sweepUs, us(d)/float64(len(ws.specs)))
		}
		sweepMs = append(sweepMs, median(millis(fr.sweepLat)))
		sweepShare = append(sweepShare, busy.Seconds()/(float64(callers())*fr.wall.Seconds()))
		urls[fr.urls] = true
	}
	rc.info["rounds"] = len(rounds)
	rc.info["miss_frame_share"] = float64(misses) / float64(frames)
	rc.info["hit_frame_share"] = 1 - float64(misses)/float64(frames)
	rc.info["sweep_ms"] = sweepMs
	rc.info["sweep_share"] = sweepShare
	rc.info["shard_urls"] = slices.Sorted(maps.Keys(urls))

	if rc.traced {
		fr := rounds[0]
		rc.set("fleet.miss_frame_share", float64(misses)/float64(frames))
		rc.set("fleet.sweep_us_per_spec", median(sweepUs))
		rc.overheadRatio(runs)
		rc.simLayers(runs, traces)
		// Each shard traces the workloads of the specs it owns and
		// simulates them plus the baselines their speedups need.
		var tracedWl []string
		var simulated []int
		index := map[harness.Spec]int{}
		for i, sp := range ws.specs {
			index[sp] = i
		}
		for _, owned := range fr.owners {
			wl := map[string]bool{}
			sims := map[int]bool{}
			for _, i := range owned {
				sp := ws.specs[i]
				wl[sp.Kernel] = true
				sims[i] = true
				sims[index[sp.Baseline()]] = true
			}
			for k := range wl {
				tracedWl = append(tracedWl, k)
			}
			for i := range sims {
				simulated = append(simulated, i)
			}
		}
		rc.busy(runs, traces, tracedWl, simulated, len(rounds))
		var memo repro.MemoStats
		for _, m := range fr.memo {
			memo = addMemo(memo, m)
		}
		rc.memoLayers(memo)
		var coalesced, misses, snaps, maxMiss float64
		for _, st := range fr.stats {
			coalesced += float64(st.Coalesced)
			misses += float64(st.MemoMisses)
			if st.Snapshots != nil {
				snaps += float64(st.Snapshots.Hits)
			}
			maxMiss = max(maxMiss, float64(st.MemoMisses))
		}
		rc.set("service.coalesced_tasks", coalesced)
		rc.set("service.memo_misses", misses)
		rc.set("service.snapshot_hits", snaps)
		rc.set("service.queued_tasks_max", float64(fr.queued))
		if misses > 0 {
			rc.set("fleet.shard_miss_skew", maxMiss/(misses/float64(len(fr.stats))))
		}
	}
	return nil
}

// tally checks a round's records against the reference and counts its
// requests, then drops the records. It returns the round's window, whose
// latencies are the frames' only.
func (rc *runCtx) tally(fr *fleetRound, chk *checker) window {
	w := window{wall: fr.wall}
	for _, f := range fr.frames {
		rc.attempted++
		if f.sweep {
			fr.sweepLat = append(fr.sweepLat, f.lat)
		} else {
			fr.frameCount++
			if f.lap == 0 {
				fr.missFrames++
			}
			w.lat = append(w.lat, float64(f.lat.Nanoseconds())/1e6)
		}
		switch {
		case f.err != nil:
			rc.failed++
			rc.fail("frame: %v", f.err)
		case !chk.allOK(f.specs, f.recs):
			rc.failed++
		default:
			w.recs += len(f.recs)
			for _, g := range f.recs {
				w.uops += recordUops(g)
			}
		}
	}
	fr.frames = nil
	return w
}

// fleetServe drives one round: callers goroutines, each replaying the spec
// set for fleetLaps laps of small frames and then fleetSweeps whole-set
// Batch calls, in its own seeded orders.
func fleetServe(ctx context.Context, rc *runCtx, r *repro.ShardedRunner, shards []*benchShard, fr *fleetRound, round uint64) error {
	rec := rc.rec
	n := callers()
	perCaller := make([][]fleetFrameRun, n)
	stopPoll := make(chan struct{})
	var pollWG sync.WaitGroup
	if rc.traced {
		// Poll the shards' queues while the first lap runs.
		pollWG.Add(1)
		go func() {
			defer pollWG.Done()
			cs := clients(shards)
			defer closeClients(cs)
			tick := time.NewTicker(20 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopPoll:
					return
				case <-tick.C:
				}
				for _, c := range cs {
					if st, err := c.Stats(ctx); err == nil {
						fr.queued = max(fr.queued, st.QueuedTasks)
					}
				}
			}
		}()
	}
	var wg sync.WaitGroup
	m := rc.host.mark()
	t0 := time.Now()
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pace := rc.host.pacer()
			for lap := 0; lap < fleetLaps+fleetSweeps; lap++ {
				order := shuffled(len(rc.ws.specs), stream(rc.seed, streamFleetOrder, round, uint64(c), uint64(lap)))
				size := fleetFrame
				if lap >= fleetLaps {
					size = len(order)
				}
				for lo := 0; lo < len(order); lo += size {
					f := fleetFrameRun{lap: lap, sweep: lap >= fleetLaps}
					for _, j := range order[lo:min(lo+size, len(order))] {
						f.specs = append(f.specs, rc.ws.specs[j])
					}
					f.recs = make([]harness.Record, 0, len(f.specs))
					start := time.Now()
					f.err = r.Batch(ctx, f.specs, func(g harness.Record) error {
						f.recs = append(f.recs, g)
						return nil
					})
					end := time.Now()
					f.lat = end.Sub(start)
					rec.add(rec.newID(), 0, rec.newRequest(), "repro.ShardedRunner.Batch", start, end)
					perCaller[c] = append(perCaller[c], f)
					pace.tick()
				}
			}
		}()
	}
	wg.Wait()
	fr.wall = time.Since(t0) - rc.host.spentSince(m)/time.Duration(n)
	close(stopPoll)
	pollWG.Wait()
	for _, fs := range perCaller {
		fr.frames = append(fr.frames, fs...)
	}
	cs := clients(shards)
	defer closeClients(cs)
	for i, c := range cs {
		st, err := c.Stats(ctx)
		if err != nil {
			return err
		}
		fr.stats = append(fr.stats, st)
		fr.memo = append(fr.memo, shards[i].srv.Session().MemoStats())
	}
	return nil
}

func clients(shards []*benchShard) []*client.Client {
	var cs []*client.Client
	for _, s := range shards {
		cs = append(cs, client.New(s.url))
	}
	return cs
}

func closeClients(cs []*client.Client) {
	for _, c := range cs {
		c.Close()
	}
}

// probeFleet times the wire layers against the warm shards of a finished
// round: per-call and batched client dispatch, the handler with no socket,
// the frame codecs, and the fleet's scatter/gather over direct per-shard
// frames. It also finds which shard owns each spec.
func (rc *runCtx) probeFleet(ctx context.Context, r *repro.ShardedRunner, shards []*benchShard, fr *fleetRound) error {
	specs := rc.ws.specs
	cs := clients(shards)
	defer closeClients(cs)

	// Ownership: a warm single-spec frame is a memo hit on its owner only.
	fr.owners = make([][]int, len(shards))
	owner := make([]int, len(specs))
	for i, sp := range specs {
		before := make([]uint64, len(shards))
		for k, s := range shards {
			before[k] = s.srv.Session().MemoStats().Hits
		}
		if err := r.Batch(ctx, []harness.Spec{sp}, func(harness.Record) error { return nil }); err != nil {
			return err
		}
		owner[i] = -1
		for k, s := range shards {
			if s.srv.Session().MemoStats().Hits > before[k] {
				owner[i] = k
			}
		}
		if owner[i] < 0 {
			return fmt.Errorf("no shard served %s from its memo", sp.Identity())
		}
		fr.owners[owner[i]] = append(fr.owners[owner[i]], i)
	}

	// Frames of the workload's size, all owned by shard 0.
	var frames [][]service.SpecRequest
	var cur []service.SpecRequest
	for _, i := range fr.owners[0] {
		cur = append(cur, service.RequestFor(specs[i]))
		if len(cur) == fleetFrame {
			frames = append(frames, cur)
			cur = nil
		}
	}
	if len(frames) == 0 {
		return errors.New("shard 0 owns too few specs for a frame")
	}
	const reps = 5
	var perCall, clientUs, handlerUs, transportUs []float64
	for rep := 0; rep < reps; rep++ {
		for _, f := range frames {
			for _, sr := range f {
				t0 := time.Now()
				if _, err := cs[0].Simulate(ctx, sr); err != nil {
					return err
				}
				perCall = append(perCall, us(time.Since(t0)))
			}
			body, err := service.BatchSyncRequest{Specs: f}.MarshalJSON()
			if err != nil {
				return err
			}
			t0 := time.Now()
			if _, err := cs[0].SimulateBatchSync(ctx, f); err != nil {
				return err
			}
			c := us(time.Since(t0))
			w := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/v1/simulate/batch-sync", bytes.NewReader(body))
			t0 = time.Now()
			shards[0].srv.ServeHTTP(w, req)
			h := us(time.Since(t0))
			if w.Code != http.StatusOK {
				return fmt.Errorf("batch-sync handler answered %d: %s", w.Code, w.Body.String())
			}
			clientUs = append(clientUs, c/float64(len(f)))
			handlerUs = append(handlerUs, h/float64(len(f)))
			transportUs = append(transportUs, c-h)
		}
	}
	rc.set("client.simulate_us_p50", median(perCall))
	rc.set("client.batch_sync_us_per_spec", median(clientUs))
	rc.set("service.handler_us_per_spec", median(handlerUs))
	rc.set("wire.transport_us", median(transportUs))

	// Frame codecs over one lap's worth of the round's records.
	var resp service.BatchSyncResponse
	for _, f := range fr.frames {
		if f.lap > 0 && !f.sweep && len(resp.Records) < len(specs) {
			resp.Records = append(resp.Records, f.recs...)
		}
	}
	var enc, dec []float64
	for rep := 0; rep < 20; rep++ {
		t0 := time.Now()
		b, err := resp.MarshalJSON()
		if err != nil {
			return err
		}
		enc = append(enc, float64(time.Since(t0).Nanoseconds())/float64(len(resp.Records)))
		var back service.BatchSyncResponse
		t0 = time.Now()
		if err := back.UnmarshalJSON(b); err != nil {
			return err
		}
		dec = append(dec, float64(time.Since(t0).Nanoseconds())/float64(len(back.Records)))
	}
	rc.set("wirejson.encode_ns_per_record", median(enc))
	rc.set("wirejson.decode_ns_per_record", median(dec))

	// Fleet overhead: the sharded runner's frame minus the same specs sent
	// straight to their owners, concurrently.
	var overhead []float64
	for rep := 0; rep < reps; rep++ {
		order := shuffled(len(specs), stream(rc.seed, streamFleetOrder, 1<<32, uint64(rep)))
		for lo := 0; lo+fleetFrame <= len(order); lo += fleetFrame {
			var frame []harness.Spec
			sub := make([][]service.SpecRequest, len(shards))
			for _, j := range order[lo : lo+fleetFrame] {
				frame = append(frame, specs[j])
				sub[owner[j]] = append(sub[owner[j]], service.RequestFor(specs[j]))
			}
			t0 := time.Now()
			if err := r.Batch(ctx, frame, func(harness.Record) error { return nil }); err != nil {
				return err
			}
			viaFleet := time.Since(t0)
			t0 = time.Now()
			var wg sync.WaitGroup
			errs := make([]error, len(shards))
			for k := range sub {
				if len(sub[k]) == 0 {
					continue
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					_, errs[k] = cs[k].SimulateBatchSync(ctx, sub[k])
				}()
			}
			wg.Wait()
			if err := errors.Join(errs...); err != nil {
				return err
			}
			overhead = append(overhead, us(viaFleet-time.Since(t0)))
		}
	}
	rc.set("fleet.overhead_us_per_frame", median(overhead))
	rc.set("harness.record_us", recordProbe(ctx, shards[0].srv.Session(), fr.owners[0], specs))
	return nil
}
