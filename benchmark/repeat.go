package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json the spread check reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// spread summarises one metric's values over repeated runs.
type spread struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"`
	Values []float64 `json:"values"`
}

// repeat runs each workload n times, seeds seed..seed+n-1, each in a
// fresh process, and prints each end-to-end metric's median, quartiles
// and spread (IQR over median). It returns exit status 1 when a spread
// other than setup_s's exceeds the metric's bound in BENCHMARK.json, or,
// given a baseline file of earlier medians, when a median is worse than
// the recorded one by more than the bound.
func repeat(only string, seed int64, seconds float64, n int, baselinePath string) int {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: --repeat reads BENCHMARK.json; run from the repository root:", err)
		return 2
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: BENCHMARK.json:", err)
		return 2
	}
	var base map[string]map[string]spread
	if baselinePath != "" {
		data, err := os.ReadFile(baselinePath)
		if err == nil {
			err = json.Unmarshal(data, &base)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: baseline:", err)
			return 2
		}
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	names := workloadNames
	if only != "" {
		names = []string{only}
	}

	status := 0
	summary := map[string]map[string]spread{}
	for _, name := range names {
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			s := strconv.FormatInt(seed+int64(i), 10)
			cmd := exec.Command(exe, "--workload", name, "--seed", s, "--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s seed %s: %v\n%s", name, s, err, stderr.String())
				return 1
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var rep report
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s seed %s: result line: %v\n", name, s, err)
				return 1
			}
			if !rep.Correct {
				fmt.Fprintf(os.Stderr, "benchmark: %s seed %s: %d of %d cell runs failed\n%s", name, s, rep.Failed, rep.Attempted, stderr.String())
				status = 1
			}
			for m, v := range rep.Metrics {
				values[m] = append(values[m], v.Value)
			}
			fmt.Fprintf(os.Stderr, "%s seed %s: %s\n", name, s, lines[len(lines)-1])
		}
		summary[name] = map[string]spread{}
		for _, m := range spec.EndToEnd {
			vs := values[m.Name]
			if len(vs) < 2 {
				fmt.Fprintf(os.Stderr, "benchmark: %s: metric %s missing\n", name, m.Name)
				status = 1
				continue
			}
			q1, med, q3 := quartiles(vs)
			sp := spread{Median: med, Q1: q1, Q3: q3, Spread: (q3 - q1) / med, Values: vs}
			summary[name][m.Name] = sp
			verdict := "ok"
			if m.Name != "setup_s" && sp.Spread > m.Bound {
				verdict = "SPREAD ABOVE BOUND"
				status = 1
			}
			shift := ""
			if b, ok := base[name][m.Name]; ok && b.Median != 0 {
				worse := (sp.Median - b.Median) / b.Median
				if m.Better == "higher" {
					worse = -worse
				}
				shift = fmt.Sprintf("  worse-than-baseline %+.4f", worse)
				if worse > m.Bound {
					verdict = "MEDIAN WORSE THAN BASELINE BY MORE THAN BOUND"
					status = 1
				}
			}
			fmt.Printf("%-10s %-12s median %-14.6g q1 %-14.6g q3 %-14.6g spread %.4f (bound %.2f)%s  %s\n",
				name, m.Name, med, q1, q3, sp.Spread, m.Bound, shift, verdict)
		}
	}
	line, err := json.Marshal(summary)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	return status
}

// quartiles returns the three cut points of values as Python's
// statistics.quantiles(values, n=4) computes them (the "exclusive"
// method).
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	ld := len(d)
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}
