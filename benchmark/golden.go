package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// goldenFS holds the pinned outputs, golden/<workload>.seed<N>.json.
//
//go:embed golden
var goldenFS embed.FS

// goldenSeeds are the seeds with pinned outputs; other seeds run
// unverified, checked only by the invariants.
var goldenSeeds = []int64{1, 2}

type goldenFile struct {
	Workload string       `json:"workload"`
	Seed     int64        `json:"seed"`
	Sizing   sizing       `json:"sizing"`
	Cells    []goldenCell `json:"cells"`
}

type goldenCell struct {
	Name   string          `json:"name"`
	Output json.RawMessage `json:"output"`
}

func goldenName(workload string, seed int64) string {
	return fmt.Sprintf("%s.seed%d.json", workload, seed)
}

// loadGolden returns the pinned output of each cell, or nil when the
// seed has none.
func loadGolden(workload string, seed int64, sz sizing) (map[string][]byte, error) {
	data, err := goldenFS.ReadFile("golden/" + goldenName(workload, seed))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var g goldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("golden %s: %w", goldenName(workload, seed), err)
	}
	if g.Sizing != sz {
		return nil, fmt.Errorf("golden %s was written at sizing %+v, the benchmark runs %+v; regenerate with --write-golden",
			goldenName(workload, seed), g.Sizing, sz)
	}
	out := make(map[string][]byte, len(g.Cells))
	for _, c := range g.Cells {
		var b bytes.Buffer
		if err := json.Compact(&b, c.Output); err != nil {
			return nil, fmt.Errorf("golden %s: cell %s: %w", goldenName(workload, seed), c.Name, err)
		}
		out[c.Name] = b.Bytes()
	}
	return out, nil
}

// writeGolden runs one pass of every workload at each golden seed and
// writes the outputs under dir, one cell per line.
func writeGolden(dir string, sz sizing) error {
	for _, name := range workloadNames {
		for _, seed := range goldenSeeds {
			s, err := newSuite(name, seed, sz)
			if err != nil {
				return err
			}
			if _, err := s.setup(nil); err != nil {
				return fmt.Errorf("%s seed %d: set-up: %w", name, seed, err)
			}
			sizingJSON, err := json.Marshal(sz)
			if err != nil {
				return err
			}
			var b bytes.Buffer
			fmt.Fprintf(&b, "{\"workload\": %q, \"seed\": %d, \"sizing\": %s, \"cells\": [\n", name, seed, sizingJSON)
			for i, cellName := range s.cells() {
				c, err := s.run(i, nil)
				if err != nil {
					return fmt.Errorf("%s seed %d: %s: %w", name, seed, cellName, err)
				}
				out, err := json.Marshal(c.out)
				if err != nil {
					return err
				}
				sep := ","
				if i == len(s.cells())-1 {
					sep = ""
				}
				fmt.Fprintf(&b, "{\"name\": %q, \"output\": %s}%s\n", cellName, out, sep)
			}
			b.WriteString("]}\n")
			path := filepath.Join(dir, goldenName(name, seed))
			if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
	}
	return nil
}
