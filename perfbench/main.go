// Command perfbench is the repository's end-to-end benchmark. It
// generates its tables from a seed, drives one named workload through
// the public SQL surface (sgbserver/sgbclient over a durable
// sgb.OpenDir database, plus in-process sgb.Session calls), checks
// every answer, and prints its metrics. With --trace 0 it prints the
// end-to-end metrics of an untraced run; with --trace 1 it prints the
// per-layer metrics of a traced run, whose spans are written to
// .bench_build/trace-<workload>.jsonl.
//
// Usage (from the repository root, see run.sh):
//
//	perfbench --workload adhoc|serve-read|serve-mixed --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See NOTES.md for what each
// workload exercises and which layer metric should move which
// end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// buildDir holds everything the benchmark writes, relative to the
// checkout root it runs from.
const buildDir = ".bench_build"

// Engine-wide durability settings every workload runs with (the
// engine's defaults, set explicitly so the run states what it used).
const (
	durabilityPolicy = "always"
	checkpointEvery  = 1024
)

type config struct {
	w       *workload
	seed    int64
	seconds int
	trace   bool
	commit  string
	// root is the run's scratch directory for its databases and logs.
	root string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// problems lists every failed output check (printed to stderr).
	problems []string
	// notes are report lines printed before the result.
	notes []string
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func main() { os.Exit(run()) }

func run() int {
	var cfg config
	name := flag.String("workload", "", "workload name: adhoc, serve-read or serve-mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&cfg.seconds, "seconds", 20, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement")
	flag.StringVar(&cfg.commit, "commit", "unknown", "source commit being measured (recorded only)")
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if cfg.seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg.w, cfg.trace = w, *trace == 1
	cfg.root = filepath.Join(buildDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(cfg.root, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(cfg.root)

	printEnv(cfg)
	var res *result
	if cfg.trace {
		res, err = traced(cfg)
	} else {
		res, err = measured(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res.Correct = len(res.problems) == 0
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	for _, n := range res.notes {
		fmt.Println("#", n)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("# %-32s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// printEnv records the run's configuration and machine.
func printEnv(cfg config) {
	env := map[string]any{
		"workload":         cfg.w.name,
		"seed":             cfg.seed,
		"seconds":          cfg.seconds,
		"trace":            cfg.trace,
		"connections":      cfg.w.conns,
		"table_rows":       tableRows,
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"num_cpu":          runtime.NumCPU(),
		"go_version":       runtime.Version(),
		"commit":           cfg.commit,
		"durability":       durabilityPolicy,
		"checkpoint_every": checkpointEvery,
	}
	b, _ := json.Marshal(env) // a map of plain values always encodes
	fmt.Println("# env", string(b))
}

// measured is the untraced run: set up, run the timed closed loop,
// check every answer, restart, and report the end-to-end metrics.
func measured(cfg config) (*result, error) {
	w := cfg.w
	res := &result{}
	data := generate(cfg.seed)
	b, setups, err := setUp(w, data, cfg.root, setupReps)
	if err != nil {
		return nil, err
	}
	defer b.close()

	want, problems, err := references(b)
	if err != nil {
		return nil, err
	}
	res.problems = append(res.problems, problems...)
	streams := make([]*stream, w.conns)
	for c := range streams {
		streams[c] = newStream(w, data, c, cfg.seed)
	}
	loop := b.runLoop(time.Duration(cfg.seconds)*time.Second, streams, want, nil)
	res.problems = append(res.problems, loop.mismatches...)
	res.Attempted, res.Failed = loop.attempted, loop.failed

	first, problems, err := finish(b, loop, want)
	if err != nil {
		return nil, err
	}
	res.problems = append(res.problems, problems...)
	rows, err := b.rowCounts()
	if err != nil {
		return nil, err
	}
	if err := b.close(); err != nil {
		return nil, err
	}
	restarts, problems := measureRestarts(w, b.dir, first, rows, nil)
	res.problems = append(res.problems, problems...)
	if len(restarts) == 0 {
		return nil, fmt.Errorf("no restart completed: %v", problems)
	}

	setupS := make([]float64, len(setups))
	for i, d := range setups {
		setupS[i] = d.Seconds()
	}
	restartMS := make([]float64, len(restarts))
	for i, r := range restarts {
		restartMS[i] = ms(r.firstAnswer)
	}
	sel := loop.lat[kindSelect]
	completed := loop.attempted - loop.failed
	res.set("setup_s", median(setupS), "s")
	res.set("select_p50_ms", latencyMS(sel, 50), "ms")
	res.set("select_p90_ms", latencyMS(sel, 90), "ms")
	res.set("throughput_ops_s", float64(completed)/loop.wall.Seconds(), "1/s")
	res.set("alloc_kb_per_op", allocKBPerOp(loop.memBefore.TotalAlloc, loop.memAfter.TotalAlloc, loop.attempted), "KiB")
	res.set("restart_first_answer_ms", median(restartMS), "ms")

	res.notef("setup_s samples %v", setupS)
	res.notef("timed phase %.2f s, %d statements attempted, %d failed", loop.wall.Seconds(), loop.attempted, loop.failed)
	for k := stmtKind(0); k < numKinds; k++ {
		lat := loop.lat[k]
		if len(lat) == 0 {
			continue
		}
		res.notef("%s n=%d p50=%.3f ms (%d beyond) p90=%.3f ms (%d beyond) p99=%.3f ms (%d beyond)",
			k, len(lat), latencyMS(lat, 50), beyond(len(lat), 50), latencyMS(lat, 90), beyond(len(lat), 90),
			latencyMS(lat, 99), beyond(len(lat), 99))
	}
	for i, q := range w.selects {
		lat := loop.bySel[i]
		res.notef("%-30s n=%d p50=%.3f ms", q.name(), len(lat), latencyMS(lat, 50))
	}
	res.notef("cache distance computations during the timed phase: %d", loop.cacheDistanceDelta)
	r0 := restarts[0].info
	res.notef("restart: %d cycles %v ms, records replayed %d, evaluators restored %d", len(restarts), restartMS, r0.RecordsReplayed, r0.EvaluatorsRestored)
	return res, nil
}

// latencyMS is the p-th percentile latency in milliseconds; a
// percentile that lands on a failed statement reads as 1e12 ms.
func latencyMS(lat []time.Duration, p float64) float64 {
	v := percentile(lat, p)
	if v == failedLatency {
		return 1e12
	}
	return ms(v)
}
