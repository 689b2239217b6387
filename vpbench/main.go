// Command vpbench is the repository's benchmark. One invocation runs one
// workload (or all three with --workload all) from a seed and prints its
// metrics; the last line of standard output is one JSON object
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1 they
// are the per-layer metrics, measured by timing calls into each layer's
// public functions from outside. README.md maps layers to the end-to-end
// metrics they move.
//
//	bash vpbench/run.sh --workload cold-sweep --seed 1 --seconds 30 --trace 0
//	bash vpbench/run.sh compare a.json b.json
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// metricDef names one metric and how to read it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees, reported by every workload.
// Bounds are the share of the parent's median a metric may lose. On a
// shared 2-CPU machine the medians of ten seeds' runs spread by up to about
// 0.15, which leaves no room for a bound tighter than 0.25.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"specs_per_s", "specs/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_tail_ms", "ms", "lower", 0.25},
	{"sim_uops_per_s", "uops/s", "higher", 0.25},
	{"max_rss_mb", "MB", "lower", 0.25},
}

// perLayer is reported by every traced run. A layer the workload does not
// reach reports 0 for its metrics.
var perLayer = []metricDef{
	{"trace_overhead_ratio", "ratio", "higher", 0},
	{"trace_spans", "count", "higher", 0},
	{"isa.generate_us", "us", "lower", 0},
	{"emu.traces", "count", "lower", 0},
	{"emu.trace_ns_per_uop", "ns/uop", "lower", 0},
	{"emu.busy_s", "s", "lower", 0},
	{"pipeline.new_us", "us", "lower", 0},
	{"pipeline.warmup_ns_per_uop", "ns/uop", "lower", 0},
	{"pipeline.measure_ns_per_uop", "ns/uop", "lower", 0},
	{"pipeline.ns_per_cycle", "ns/cycle", "lower", 0},
	{"pipeline.busy_s", "s", "lower", 0},
	{"pipeline.ns_per_uop.none", "ns/uop", "lower", 0},
	{"pipeline.ns_per_uop.lvp", "ns/uop", "lower", 0},
	{"pipeline.ns_per_uop.stride", "ns/uop", "lower", 0},
	{"pipeline.ns_per_uop.fcm", "ns/uop", "lower", 0},
	{"pipeline.ns_per_uop.vtage", "ns/uop", "lower", 0},
	{"core.lvp.extra_ns_per_uop", "ns/uop", "lower", 0},
	{"core.stride.extra_ns_per_uop", "ns/uop", "lower", 0},
	{"core.fcm.extra_ns_per_uop", "ns/uop", "lower", 0},
	{"core.vtage.extra_ns_per_uop", "ns/uop", "lower", 0},
	{"pipeline.sim_cycles", "count", "lower", 0},
	{"pipeline.committed_uops", "count", "higher", 0},
	{"pipeline.fetched_uops", "count", "lower", 0},
	{"pipeline.fetched_per_committed", "ratio", "lower", 0},
	{"pipeline.squash_value", "count", "lower", 0},
	{"pipeline.squash_branch", "count", "lower", 0},
	{"pipeline.squash_memorder", "count", "lower", 0},
	{"pipeline.reissued_uops", "count", "lower", 0},
	{"pipeline.stall_rob", "count", "lower", 0},
	{"pipeline.stall_iq", "count", "lower", 0},
	{"pipeline.stall_lq", "count", "lower", 0},
	{"pipeline.stall_sq", "count", "lower", 0},
	{"pipeline.stall_regs", "count", "lower", 0},
	{"mem.fetch_imiss_stalls", "count", "lower", 0},
	{"bpred.cond_mispredicts", "count", "lower", 0},
	{"core.vp_eligible", "count", "higher", 0},
	{"core.vp_used", "count", "higher", 0},
	{"core.vp_used_wrong", "count", "lower", 0},
	{"core.vp_coverage", "ratio", "higher", 0},
	{"core.vp_accuracy", "ratio", "higher", 0},
	{"harness.memo_hits", "count", "higher", 0},
	{"harness.memo_misses", "count", "lower", 0},
	{"harness.store_hits", "count", "higher", 0},
	{"harness.self_us_per_spec", "us", "lower", 0},
	{"harness.record_us", "us", "lower", 0},
	{"store.open_us", "us", "lower", 0},
	{"store.get_us_p50", "us", "lower", 0},
	{"store.put_us_p50", "us", "lower", 0},
	{"store.gets", "count", "lower", 0},
	{"store.puts", "count", "lower", 0},
	{"store.load_errors", "count", "lower", 0},
	{"store.entry_bytes", "B", "lower", 0},
	{"client.simulate_us_p50", "us", "lower", 0},
	{"client.batch_sync_us_per_spec", "us", "lower", 0},
	{"service.handler_us_per_spec", "us", "lower", 0},
	{"wire.transport_us", "us", "lower", 0},
	{"wirejson.encode_ns_per_record", "ns", "lower", 0},
	{"wirejson.decode_ns_per_record", "ns", "lower", 0},
	{"service.coalesced_tasks", "count", "higher", 0},
	{"service.memo_misses", "count", "lower", 0},
	{"service.snapshot_hits", "count", "higher", 0},
	{"service.queued_tasks_max", "count", "lower", 0},
	{"fleet.overhead_us_per_frame", "us", "lower", 0},
	{"fleet.shard_miss_skew", "ratio", "lower", 0},
	{"fleet.miss_frame_share", "ratio", "lower", 0},
	{"fleet.sweep_us_per_spec", "us", "lower", 0},
	{"repro.local_warm_us_per_call", "us", "lower", 0},
}

// workload is one set of inputs the benchmark runs, and why it is there.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(context.Context, *runCtx) error
}

// workloads in the order --workload all runs them.
var workloads = []workload{
	{"cold-sweep", "fresh LocalRunner and empty store: nearly all host time is emu, pipeline and core simulation", runCold},
	{"warm-rerender", "re-renders from a populated store on fresh runners: store, harness and facade only, zero simulation", runWarm},
	{"fleet-serve", "two in-process shards behind OpenShardedRunner: wire, service scheduler and fleet, misses then warm hits", runFleet},
}

// runCtx is one workload run: its inputs, its clock and what it measured.
type runCtx struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	out     string // directory for result, span and guard files
	ws      *workloadSet
	rec     *spanRecorder // nil unless traced
	host    *hostClock

	attempted, failed int
	metrics           map[string]float64
	info              map[string]any // extra facts kept in the result file
	problems          []string       // correctness failures other than counted requests
}

func (rc *runCtx) set(name string, v float64) { rc.metrics[name] = v }

// fail records a correctness failure that no request count carries.
func (rc *runCtx) fail(format string, args ...any) {
	rc.problems = append(rc.problems, fmt.Sprintf(format, args...))
}

// result is the last line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultFile is what a run keeps on disk: the result plus the machine it
// was taken on and the facts behind its metrics.
type resultFile struct {
	Workload    string         `json:"workload"`
	Seed        uint64         `json:"seed"`
	Trace       bool           `json:"trace"`
	Fingerprint fingerprint    `json:"fingerprint"`
	Result      result         `json:"result"`
	Info        map[string]any `json:"info"`
	Problems    []string       `json:"problems,omitempty"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compare(os.Stdout, os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "vpbench:", err)
			os.Exit(1)
		}
		return
	}
	fs := flag.NewFlagSet("vpbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: cold-sweep, warm-rerender, fleet-serve or all")
	seed := fs.Uint64("seed", 1, "workload seed: generated programs and request orders")
	secs := fs.Int("seconds", defaultSeconds, "seconds one run measures")
	trace := fs.Int("trace", 0, "1: per-layer metrics from a traced run; 0: end-to-end metrics")
	emit := fs.Bool("benchmark-json", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *emit {
		b, _ := json.MarshalIndent(benchmarkJSON(), "", "  ")
		fmt.Println(string(b))
		return
	}
	if *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "vpbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	var names []string
	for _, w := range workloads {
		if *workload == w.Name || *workload == "all" {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "vpbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	out := outDir()
	if err := os.MkdirAll(out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "vpbench:", err)
		os.Exit(1)
	}
	res, err := runAll(names, *seed, time.Duration(*secs)*time.Second, *trace == 1, out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vpbench:", err)
		os.Exit(1)
	}
	b, _ := json.Marshal(res)
	fmt.Println(string(b))
}

// outDir is where result, span, guard and scratch files go: the directory
// run.sh names in VPBENCH_OUT, else .bench_build.
func outDir() string {
	if d := os.Getenv("VPBENCH_OUT"); d != "" {
		return d
	}
	return ".bench_build"
}

// runAll runs each named workload and merges their results; with more than
// one workload the metric names carry a "<workload>." prefix.
func runAll(names []string, seed uint64, seconds time.Duration, traced bool, out string) (result, error) {
	fp := machineFingerprint()
	fpJSON, _ := json.Marshal(fp)
	fmt.Printf("fingerprint %s\n", fpJSON)
	all := result{Correct: true, Metrics: map[string]metricJSON{}}
	for _, name := range names {
		rc, err := runOne(name, seed, seconds, traced, out)
		if err != nil {
			return result{}, fmt.Errorf("%s: %w", name, err)
		}
		res := rc.result(traced)
		report(os.Stdout, name, rc, res, traced)
		rf := resultFile{Workload: name, Seed: seed, Trace: traced, Fingerprint: fp, Result: res, Info: rc.info, Problems: rc.problems}
		path := filepath.Join(out, fmt.Sprintf("result-%s-seed%d-trace%d.json", name, seed, btoi(traced)))
		if err := writeJSON(path, rf); err != nil {
			return result{}, err
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(names) > 1 {
				k = name + "." + k
			}
			all.Metrics[k] = v
		}
	}
	return all, nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// runOne runs one workload in a context that expires well before the
// benchmark's 180-second limit, so a hung layer fails the run instead of
// overrunning it.
func runOne(name string, seed uint64, seconds time.Duration, traced bool, out string) (*runCtx, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	defer os.RemoveAll(filepath.Join(out, "scratch"))
	rc := &runCtx{seed: seed, seconds: seconds, traced: traced, out: out,
		metrics: map[string]float64{}, info: map[string]any{}, host: &hostClock{}}
	if traced {
		rc.rec = newSpanRecorder()
	}
	// Write back what earlier processes left dirty, so that the set-ups'
	// file operations do not wait behind it.
	syscall.Sync()
	steal0, total0 := cpuStat()
	faults0 := minorFaults()
	for _, w := range workloads {
		if w.Name == name {
			if err := w.run(ctx, rc); err != nil {
				return nil, err
			}
		}
	}
	if steal1, total1 := cpuStat(); total1 > total0 {
		// CPU time the hypervisor gave to other guests: a noisy host shows
		// here before it shows as a slower run.
		rc.info["host_steal_share"] = float64(steal1-steal0) / float64(total1-total0)
	}
	rc.set("max_rss_mb", maxRSSMB())
	rc.info["minor_faults"] = minorFaults() - faults0
	rc.info["calib_sample_ms_median"] = median(millis(rc.host.all))
	var sum float64
	for _, d := range rc.host.all {
		sum += float64(d.Nanoseconds()) / 1e6
	}
	rc.info["calib_sample_ms_mean"] = sum / float64(len(rc.host.all))
	rc.info["calib_samples"] = len(rc.host.all)
	rc.set("isa.generate_us", median(microseconds(rc.ws.genTimes)))
	if err := rc.guard(name); err != nil {
		return nil, err
	}
	if traced {
		rc.set("trace_spans", float64(rc.rec.count()))
		path := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
		if err := rc.rec.writeFile(path); err != nil {
			return nil, err
		}
		rc.info["spans_file"] = path
	}
	return rc, nil
}

// result assembles the reported metrics. A metric the workload did not
// produce is reported as 0, which only happens for per-layer metrics of
// layers the workload does not reach.
func (rc *runCtx) result(traced bool) result {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := result{
		Correct:   rc.failed == 0 && len(rc.problems) == 0 && rc.attempted > 0,
		Attempted: rc.attempted,
		Failed:    rc.failed,
		Metrics:   map[string]metricJSON{},
	}
	for _, d := range defs {
		res.Metrics[d.Name] = metricJSON{Value: rc.metrics[d.Name], Unit: d.Unit}
	}
	return res
}

// report prints a human-readable table of every metric the run produced,
// including the ones that are not part of this mode's result.
func report(w io.Writer, name string, rc *runCtx, res result, traced bool) {
	fmt.Fprintf(w, "workload %s seed %d trace %d\n", name, rc.seed, btoi(traced))
	ratio := 0.0
	if rc.attempted > 0 {
		ratio = float64(rc.failed) / float64(rc.attempted)
	}
	fmt.Fprintf(w, "  %-34s %g %s\n", "failed_ratio", ratio, "ratio")
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-34s %.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	keys := make([]string, 0, len(rc.info))
	for k := range rc.info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  info %-29s %v\n", k, rc.info[k])
	}
	for _, p := range rc.problems {
		fmt.Fprintf(w, "  FAIL %s\n", p)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// guard is the exact-counter and record guard across runs: the digest of
// the reference records and the simulated counters of a seed must be the
// same on every run over the same inputs, whichever workload computed them.
// The guard files are keyed by the inputs (the window and the spec set, whose
// identities name the generated programs by content), not by the build, so
// a rebuilt program that simulates differently fails here against the runs
// of the build before it. The first run of a seed writes the files; later
// runs compare. A change that means to alter the simulated results removes
// guard/ from the output directory first.
func (rc *runCtx) guard(workload string) error {
	dir := filepath.Join(rc.out, "guard", inputKey(rc.ws))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	check := func(kind string, v any) error {
		if v == nil {
			return nil
		}
		path := filepath.Join(dir, fmt.Sprintf("seed%d.%s.json", rc.seed, kind))
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		prev, err := os.ReadFile(path)
		switch {
		case os.IsNotExist(err):
			return os.WriteFile(path, b, 0o644)
		case err != nil:
			return err
		case string(prev) != string(b):
			rc.fail("%s: %s of seed %d differ from an earlier run over the same inputs (%s)", workload, kind, rc.seed, path)
		}
		return nil
	}
	if err := check("records", rc.info["reference_digest"]); err != nil {
		return err
	}
	if c, ok := rc.info["counters"]; ok {
		return check("counters", c)
	}
	return nil
}

// inputKey identifies a run's inputs: the simulation window and the spec
// set in order.
func inputKey(ws *workloadSet) string {
	h := sha256.New()
	fmt.Fprintf(h, "warmup %d measure %d\n", warmup, measure)
	for _, sp := range ws.specs {
		fmt.Fprintf(h, "%s\n", sp.Identity())
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// benchmarkJSON is BENCHMARK.json, generated from the tables above so the
// two cannot drift apart. Per-layer metrics have no bound, so theirs is
// omitted.
func benchmarkJSON() map[string]any {
	return map[string]any{
		"command":     []string{"bash", "vpbench/run.sh"},
		"paths":       []string{"vpbench"},
		"run_seconds": defaultSeconds,
		"workloads":   workloads,
		"end_to_end":  endToEnd,
		"per_layer":   perLayer,
	}
}

// setupSamples is how many set-ups a run times when one costs milliseconds;
// setup_s is their median. The first setupWarmups of a process fault in its
// heap and run lazy initialisation, so they are not timed.
const (
	setupSamples = 31
	setupWarmups = 15
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 30

// compare prints the ratio of every metric two result files share and
// refuses files taken on machines with different fingerprints.
func compare(w io.Writer, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: vpbench compare before.json after.json")
	}
	var rf [2]resultFile
	for i, p := range args {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &rf[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	if rf[0].Fingerprint != rf[1].Fingerprint {
		return fmt.Errorf("refusing to compare results from different machines:\n  %+v\n  %+v", rf[0].Fingerprint, rf[1].Fingerprint)
	}
	if rf[0].Workload != rf[1].Workload || rf[0].Trace != rf[1].Trace {
		return fmt.Errorf("refusing to compare %s/trace=%v with %s/trace=%v", rf[0].Workload, rf[0].Trace, rf[1].Workload, rf[1].Trace)
	}
	// The fleet's ring splits the specs by shard URL, so fleets on other
	// ports carry other loads per shard.
	if a, b := fmt.Sprint(rf[0].Info["shard_urls"]), fmt.Sprint(rf[1].Info["shard_urls"]); a != b {
		return fmt.Errorf("refusing to compare fleets on different shard URLs: %s and %s", a, b)
	}
	var names []string
	for k := range rf[0].Result.Metrics {
		if _, ok := rf[1].Result.Metrics[k]; ok {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-34s %14s %14s %12s\n", "metric", "before", "after", "after/before")
	for _, k := range names {
		a, b := rf[0].Result.Metrics[k], rf[1].Result.Metrics[k]
		r := "-"
		if a.Value != 0 {
			r = fmt.Sprintf("%.3f", b.Value/a.Value)
		}
		fmt.Fprintf(w, "%-34s %14.6g %14.6g %12s %s\n", k, a.Value, b.Value, r, a.Unit)
	}
	return nil
}
