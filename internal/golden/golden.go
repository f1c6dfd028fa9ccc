// Package golden checks a command's output files against checked-in
// golden copies: the "same results" test of the CLIs, whose JSON
// artifacts are the simulator's spec.
package golden

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// Check byte-compares every file in gotDir with its namesake in
// goldenDir; both directories must hold the same file names. Each
// mismatch names the file and, for JSON, the first differing path; on
// any failure regen, the command that rewrites goldenDir, is printed.
func Check(t testing.TB, goldenDir, gotDir, regen string) {
	t.Helper()
	want, got := readDir(t, goldenDir), readDir(t, gotDir)
	failed := false
	for _, name := range unionKeys(want, got) {
		w, inWant := want[name]
		g, inGot := got[name]
		switch {
		case !inGot:
			t.Errorf("%s: golden file not written", name)
		case !inWant:
			t.Errorf("%s: written but has no golden copy", name)
		case !bytes.Equal(w, g):
			t.Errorf("%s differs from its golden copy: %s", name, FirstDiff(w, g))
		default:
			continue
		}
		failed = true
	}
	if failed {
		t.Errorf("if the change is intended, regenerate the goldens from the repository root with:\n\t%s\nand name the changed files and the reason in the change description", regen)
	}
}

// readDir returns the regular files of dir by name.
func readDir(t testing.TB, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
	}
	return files
}

// unionKeys returns the keys of a and b, sorted.
func unionKeys[V any](a, b map[string]V) []string {
	var keys []string
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, dup := a[k]; !dup {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// FirstDiff describes the first difference between two JSON documents
// as a jq-style path with both values (object keys are visited in
// sorted order). Inputs that are not both JSON are reported by the
// offset of their first differing byte.
func FirstDiff(want, got []byte) string {
	w, werr := decode(want)
	g, gerr := decode(got)
	if werr != nil || gerr != nil {
		i := 0
		for i < len(want) && i < len(got) && want[i] == got[i] {
			i++
		}
		return fmt.Sprintf("first differing byte at offset %d", i)
	}
	if d := diff("", w, g); d != "" {
		return d
	}
	return "same JSON values, different formatting"
}

// decode parses one JSON document, keeping numbers as written.
func decode(data []byte) (any, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var v any
	err := dec.Decode(&v)
	return v, err
}

// diff returns the first difference between w and g, or "". path is
// where they sit in the document, in jq syntax minus a leading ".".
func diff(path string, w, g any) string {
	switch wv := w.(type) {
	case map[string]any:
		gv, ok := g.(map[string]any)
		if !ok {
			break
		}
		for _, k := range unionKeys(wv, gv) {
			wk, inW := wv[k]
			gk, inG := gv[k]
			switch {
			case !inG:
				return fmt.Sprintf("%s.%s: missing (golden %s)", path, k, show(wk))
			case !inW:
				return fmt.Sprintf("%s.%s: not in the golden (got %s)", path, k, show(gk))
			}
			if d := diff(path+"."+k, wk, gk); d != "" {
				return d
			}
		}
		return ""
	case []any:
		gv, ok := g.([]any)
		if !ok {
			break
		}
		for i := 0; i < len(wv) && i < len(gv); i++ {
			if d := diff(fmt.Sprintf("%s[%d]", path, i), wv[i], gv[i]); d != "" {
				return d
			}
		}
		if len(wv) != len(gv) {
			return fmt.Sprintf("%s: golden has %d elements, got %d", jq(path), len(wv), len(gv))
		}
		return ""
	}
	if reflect.DeepEqual(w, g) {
		return ""
	}
	return fmt.Sprintf("%s: golden %s, got %s", jq(path), show(w), show(g))
}

// jq renders a diff path the way jq writes it: "." for the document
// root, and a leading "." before a top-level array index.
func jq(path string) string {
	if path == "" || path[0] == '[' {
		return "." + path
	}
	return path
}

// show renders a decoded JSON value compactly for a diff message.
func show(v any) string {
	data, _ := json.Marshal(v)
	if len(data) > 80 {
		return string(data[:77]) + "..."
	}
	return string(data)
}
