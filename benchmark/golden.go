package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Pinned inputs. golden.json holds, per workload, the SHA-256 of the
// query texts (which never depend on -seed) and of the first
// goldenBatches NDJSON bodies at seed 1 (every run has at least that
// many, whatever -seconds). A later edit to datagen or querygen that
// moves either makes the benchmark refuse to run: a baseline must not
// move silently.
const (
	goldenSeed    = 1
	goldenBatches = 40
)

type goldenEntry struct {
	Queries string `json:"queries_sha256"`
	Bodies  string `json:"bodies_sha256"`
}

func fingerprint(in *inputs) goldenEntry {
	hq := sha256.New()
	for _, q := range in.queries {
		fmt.Fprintf(hq, "%s\x00%s\x00", q.name, q.text)
	}
	hb := sha256.New()
	for _, b := range in.bodies[:goldenBatches] {
		hb.Write(b)
	}
	return goldenEntry{Queries: hex.EncodeToString(hq.Sum(nil)), Bodies: hex.EncodeToString(hb.Sum(nil))}
}

func goldenPath(d dirs) string { return filepath.Join(d.bench, "golden.json") }

func checkGolden(d dirs, in *inputs, res *result) error {
	raw, err := os.ReadFile(goldenPath(d))
	if err != nil {
		return err
	}
	var golden map[string]goldenEntry
	if err := json.Unmarshal(raw, &golden); err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	want, ok := golden[in.w.name]
	if !ok {
		return fmt.Errorf("golden.json has no entry for %s (regenerate with -write-golden)", in.w.name)
	}
	got := fingerprint(in)
	if got.Queries != want.Queries {
		return fmt.Errorf("%s: query texts hash to %s, golden.json pins %s: querygen or the frozen query seeds changed", in.w.name, got.Queries, want.Queries)
	}
	if in.seed != goldenSeed {
		res.note("seed %d: NDJSON bodies are pinned for seed %d only; pinned-input check skipped", in.seed, goldenSeed)
		return nil
	}
	if got.Bodies != want.Bodies {
		return fmt.Errorf("%s: NDJSON bodies hash to %s, golden.json pins %s: datagen or the batch encoding changed", in.w.name, got.Bodies, want.Bodies)
	}
	return nil
}

// writeGolden regenerates golden.json from the current generators. It
// is for the change that defines or redefines the benchmark; afterwards
// the baseline must be measured again.
func writeGolden(d dirs) error {
	golden := map[string]goldenEntry{}
	for _, w := range workloads {
		in, err := buildInputs(w, goldenSeed, plan{warm: goldenBatches})
		if err != nil {
			return err
		}
		golden[w.name] = fingerprint(in)
	}
	data, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath(d), append(data, '\n'), 0o644)
}
