// Command benchmark is the repository's one benchmark: it builds
// cmd/tsserved, spawns it as a separate process on loopback for each
// workload, drives it from this single load-generator process over
// exactly two connections (one NDJSON feeder, one SSE subscriber),
// checks its outputs against a reference, and prints every metric by
// name with its unit. See README.md beside this file.
//
//	go run ./benchmark --workload social_join --seed 1 --seconds 10 --trace 0
//	go run ./benchmark -out benchmark/out/mine.json -runs 10     # every workload, 10 seeds each, plus a traced run
//	go run ./benchmark -compare benchmark/baseline/seed-A.json benchmark/out/mine.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// spec is BENCHMARK.json, the contract the emitted metrics are checked
// against on every run.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(d dirs) (*spec, error) {
	raw, err := os.ReadFile(filepath.Join(d.repo, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// conform checks that a run emitted exactly the metrics BENCHMARK.json
// names for its mode, each with the unit declared there.
func (s *spec) conform(res *result) error {
	want := s.EndToEnd
	if res.Trace {
		want = s.PerLayer
	}
	var problems []string
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			problems = append(problems, "missing "+m.Name)
		case got.Unit != m.Unit:
			problems = append(problems, fmt.Sprintf("%s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit))
		}
	}
	if len(res.Metrics) != len(want) {
		names := map[string]bool{}
		for _, m := range want {
			names[m.Name] = true
		}
		for name := range res.Metrics {
			if !names[name] {
				problems = append(problems, name+" is not in BENCHMARK.json")
			}
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("%s: metrics do not match BENCHMARK.json: %s", res.Workload, strings.Join(problems, "; "))
	}
	return nil
}

// printResult prints every metric by name with its unit, then the
// notes. The machine-readable line comes last, separately.
func printResult(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("workload %s seed %d trace %v\n", res.Workload, res.Seed, res.Trace)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("  %-36s %16.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Printf("  attempted %d failed %d correct %v\n", res.Attempted, res.Failed, res.Correct)
	for _, n := range res.Notes {
		fmt.Printf("  note: %s\n", n)
	}
}

// header describes where a result set was taken.
type header struct {
	When      string  `json:"when"`
	Commit    string  `json:"commit"`
	GoVersion string  `json:"go_version"`
	NProc     int     `json:"nproc"`
	GoMaxProc int     `json:"loadgen_gomaxprocs"`
	WALFS     string  `json:"wal_fs_type"`
	Seconds   float64 `json:"seconds"`
	// Claim is what this result set claims against a baseline. The
	// change that defines the benchmark claims nothing.
	Claim *string `json:"claim"`
}

// resultSet is what -out writes and -compare reads.
type resultSet struct {
	Header header    `json:"header"`
	Runs   []*result `json:"runs"`
}

func newHeader(d dirs, seconds float64) header {
	commit := "unknown"
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = d.repo
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return header{
		When: time.Now().UTC().Format(time.RFC3339), Commit: commit, GoVersion: runtime.Version(),
		NProc: runtime.NumCPU(), GoMaxProc: runtime.GOMAXPROCS(0), WALFS: fsType(d.out), Seconds: seconds,
	}
}

func main() {
	code := run()
	runCleanups()
	os.Exit(code)
}

func run() int {
	var (
		workloadName = flag.String("workload", "", "run this one workload and print its result as the last line (the driver's mode)")
		seed         = flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds      = flag.Float64("seconds", 0, "how long one run measures (default: run_seconds of BENCHMARK.json)")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the server and the traced layer run")
		out          = flag.String("out", "", "run every workload and write the result set to this file")
		runs         = flag.Int("runs", 1, "with -out: measured runs per workload, on seeds seed, seed+1, …")
		compare      = flag.Bool("compare", false, "compare two result sets: -compare a.json b.json")
		golden       = flag.Bool("write-golden", false, "regenerate golden.json from the current generators")
		vet          = flag.String("vet", "", "print the vetting table of candidate query seeds for this workload")
	)
	flag.Parse()

	// A SIGINT or SIGTERM must not leave a tsserved or a WAL directory
	// behind.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		runCleanups()
		os.Exit(130)
	}()

	d, err := locate()
	if err != nil {
		return fail(err)
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two result files"))
		}
		s, err := loadSpec(d)
		if err != nil {
			return fail(err)
		}
		return compareSets(s, flag.Arg(0), flag.Arg(1))
	case *golden:
		if err := writeGolden(d); err != nil {
			return fail(err)
		}
		return 0
	case *vet != "":
		w := findWorkload(*vet)
		if w == nil {
			return fail(fmt.Errorf("unknown workload %q", *vet))
		}
		return vetSeeds(w)
	}

	s, err := loadSpec(d)
	if err != nil {
		return fail(err)
	}
	if *seconds <= 0 {
		*seconds = float64(s.RunSeconds)
	}
	bin, err := buildServer(d)
	if err != nil {
		return fail(err)
	}
	one := func(w *workload, seed int64, trace bool) (*result, error) {
		res, err := runOnce(runConfig{w: w, seed: seed, seconds: *seconds, trace: trace, d: d, bin: bin})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		if err := s.conform(res); err != nil {
			return nil, err
		}
		printResult(res)
		return res, nil
	}

	if *workloadName != "" {
		w := findWorkload(*workloadName)
		if w == nil {
			return fail(fmt.Errorf("unknown workload %q", *workloadName))
		}
		res, err := one(w, *seed, *trace != 0)
		if err != nil {
			return fail(err)
		}
		line, _ := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted int64             `json:"attempted"`
			Failed    int64             `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, res.Metrics})
		fmt.Println(string(line))
		if !res.Correct {
			return 1
		}
		return 0
	}

	if *out == "" {
		return fail(fmt.Errorf("give --workload <name> for one run, or -out <file> for the whole suite"))
	}
	set := resultSet{Header: newHeader(d, *seconds)}
	code := 0
	for _, w := range workloads {
		for i := 0; i <= *runs; i++ {
			// runs measured runs on consecutive seeds, then one traced
			// run on the first seed.
			sd, traced := *seed+int64(i), false
			if i == *runs {
				sd, traced = *seed, true
			}
			res, err := one(w, sd, traced)
			if err != nil {
				return fail(err)
			}
			if !res.Correct {
				code = 1
			}
			set.Runs = append(set.Runs, res)
		}
	}
	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return fail(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		return fail(err)
	}
	return code
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 1
}
