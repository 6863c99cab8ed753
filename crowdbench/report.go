package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported number with its unit, its sample count and,
// for distributions, the sample quartiles.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	// Note qualifies the number (e.g. what it was measured against).
	Note string `json:"note,omitempty"`
}

// report is everything one run measured; it is written as JSON beside
// the one-line result.
type report struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Traced    bool              `json:"traced"`
	Host      map[string]string `json:"host"`
	Inputs    string            `json:"inputs_digest"`
	Correct   bool              `json:"correct"`
	Problems  []string          `json:"problems,omitempty"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   []metric          `json:"metrics"`
}

func (r *report) add(m metric) { r.Metrics = append(r.Metrics, m) }

func (r *report) problem(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func (r *report) get(name string) (metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sorted(v), 0.5) }

// dist reports a quantile of a sample with the sample's quartiles.
func dist(name, unit string, v []float64, q float64) metric {
	s := sorted(v)
	return metric{Name: name, Unit: unit, Value: quantile(s, q), N: len(s), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
}

// hostFacts records what the numbers depend on.
func hostFacts(root, dataDir string) map[string]string {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	fsys := fsType(dataDir)
	if fsys == "tmpfs" {
		fsys += " (fsync is free here: durable numbers do not describe a disk)"
	}
	return map[string]string{
		"nproc":                fmt.Sprint(nproc()),
		"gomaxprocs.generator": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"gomaxprocs.servers":   fmt.Sprint(nproc()),
		"go":                   runtime.Version(),
		"kernel":               strings.TrimSpace(string(kernel)),
		"commit":               commitOf(root),
		"source_digest":        sourceDigest(root),
		"data_dir_fs":          fsys,
		"goos_goarch":          runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// commitOf reads HEAD from a .git directory when the checkout has one.
func commitOf(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none (not a git checkout; see source_digest)"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	return ref
}

// sourceDigest hashes every Go source and module file of the checkout,
// identifying the code measured when there is no commit to name.
func sourceDigest(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.Type().IsRegular() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// printHuman writes every metric by name with unit, sample count and
// quartiles.
func (r *report) printHuman(w io.Writer) {
	fmt.Fprintf(w, "workload=%s seed=%d seconds=%d traced=%v inputs=%s correct=%v attempted=%d failed=%d\n",
		r.Workload, r.Seed, r.Seconds, r.Traced, r.Inputs, r.Correct, r.Attempted, r.Failed)
	keys := make([]string, 0, len(r.Host))
	for k := range r.Host {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "host %-22s %s\n", k, r.Host[k])
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "PROBLEM %s\n", p)
	}
	for _, m := range r.Metrics {
		line := fmt.Sprintf("%-34s %14.6g %-6s n=%d", m.Name, m.Value, m.Unit, m.N)
		if m.Q1 != 0 || m.Q3 != 0 {
			line += fmt.Sprintf(" q1=%.6g q3=%.6g", m.Q1, m.Q3)
		}
		if m.Note != "" {
			line += "  (" + m.Note + ")"
		}
		fmt.Fprintln(w, line)
	}
}

// resultLine is the one-line JSON result: the gated metrics only.
func (r *report) resultLine(names []string) ([]byte, error) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]val{}
	for _, n := range names {
		m, ok := r.get(n)
		if !ok {
			r.problem("metric %s was not measured", n)
			continue
		}
		ms[n] = val{Value: m.Value, Unit: m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
}
