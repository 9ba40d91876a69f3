// Command perfbench is edgeinfer's steady-state benchmark. One process
// drives one of three workloads — two unpaced closed-loop HTTP serving
// workloads and an offline accuracy sweep — checks every output against
// answers computed in-process before the timed region, and prints its
// metrics, each named with its unit and its clock: host wall time (the
// program's own cost) or simulated device time (the paper's quantity).
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload serve-raw --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object
// holding the end-to-end metrics; with --trace 1 it holds the per-layer
// metrics of a separate instrumented pass, and the lines above it table
// every layer in both clocks, the accounting residuals and the tracing
// overhead. --workload all runs the three workloads in turn. The process
// exits non-zero when any output is wrong. perfbench/README.md
// documents the workloads, the metrics and what each should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"edgeinfer/internal/kernels"
)

// Seeds: results quoted for a change are taken on defaultSeed, and the
// claim is re-checked on heldOutSeed, which is never used while tuning.
const (
	defaultSeed = 1
	heldOutSeed = 9
)

var workloadNames = []string{"serve-raw", "serve-quorum", "offline-accuracy"}

// options are the command-line settings shared by every workload.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	conns   int
}

// Each run sets its system up at least minSetUps times and until the
// set-ups have taken minSetUpTime in all, so a quick set-up is sampled
// more often; setup_s is the median.
const (
	minSetUps    = 5
	minSetUpTime = 2 * time.Second
)

// metric is one reported number and its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the machine-readable last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var workload string
	var trace int
	flag.StringVar(&workload, "workload", "", "workload: "+strings.Join(workloadNames, ", ")+" or all")
	flag.Int64Var(&o.seed, "seed", defaultSeed, fmt.Sprintf("input seed (default %d; %d is held out for re-checking claims)", defaultSeed, heldOutSeed))
	flag.Float64Var(&o.seconds, "seconds", 10, "timed length of one run in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs an untraced and an instrumented pass and reports per-layer metrics")
	flag.Parse()
	o.trace = trace == 1
	// One closed-loop connection (or caller) per core, never more.
	o.conns = runtime.GOMAXPROCS(0)
	if o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be > 0 and --trace 0 or 1")
		os.Exit(2)
	}

	names := []string{workload}
	if workload == "all" {
		names = workloadNames
	}
	ok := true
	for _, name := range names {
		res, err := runWorkload(name, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

func runWorkload(name string, o options) (result, error) {
	printMeta(name, o)
	switch name {
	case "serve-raw", "serve-quorum":
		return runServe(name, o)
	case "offline-accuracy":
		return runOffline(o)
	default:
		return result{}, fmt.Errorf("unknown workload %q (want %s or all)", name, strings.Join(workloadNames, ", "))
	}
}

// printMeta attaches the run's metadata to its output.
func printMeta(name string, o options) {
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g trace=%t\n", name, o.seed, o.seconds, o.trace)
	fmt.Printf("# host: gomaxprocs=%d kernels.workers=%d conns=%d cpu=%q go=%s\n",
		runtime.GOMAXPROCS(0), kernels.Workers(), o.conns, cpuModel(), runtime.Version())
}

// cpuModel reads the processor name the kernel reports, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// timeSetUps runs setUp as often as the set-up constants ask and returns
// the median wall time in seconds and the last system built; earlier
// systems are closed.
func timeSetUps[S interface{ close() }](setUp func() (S, error)) (float64, S, error) {
	var sys S
	var walls []float64
	var total time.Duration
	for i := 0; i < minSetUps || total < minSetUpTime; i++ {
		if i > 0 {
			sys.close()
		}
		// Every set-up starts from a collected heap, so a GC cycle owed by
		// the previous one is not billed to it.
		runtime.GC()
		start := time.Now()
		s, err := setUp()
		if err != nil {
			return 0, sys, err
		}
		wall := time.Since(start)
		total += wall
		walls = append(walls, wall.Seconds())
		sys = s
	}
	med := median(walls)
	fmt.Printf("# setup_s (host) samples=%s median=%.6f\n", fmtSamples(walls), med)
	return med, sys, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func fmtSamples(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
