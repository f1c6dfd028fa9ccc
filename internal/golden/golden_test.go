package golden

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestFirstDiff(t *testing.T) {
	for _, tc := range []struct{ want, got, diff string }{
		{`{"a":{"b":[1,2,3]}}`, `{"a":{"b":[1,2,4]}}`, ".a.b[2]: golden 3, got 4"},
		{`{"a":1,"b":2}`, `{"a":1}`, ".b: missing (golden 2)"},
		{`{"a":1}`, `{"a":1,"c":"x"}`, `.c: not in the golden (got "x")`},
		{`[1,[2]]`, `[1,[2,3]]`, ".[1]: golden has 1 elements, got 2"},
		{`{"x":1.50}`, `{"x":1.5}`, `.x: golden 1.50, got 1.5`},
		{`{"a": 1}`, `{"a":1}`, "same JSON values, different formatting"},
		{`{"a":1`, `{"a":2`, "first differing byte at offset 5"},
	} {
		if got := FirstDiff([]byte(tc.want), []byte(tc.got)); got != tc.diff {
			t.Errorf("FirstDiff(%s, %s) = %q, want %q", tc.want, tc.got, got, tc.diff)
		}
	}
}

// recorder captures Check's failures instead of failing the test.
type recorder struct {
	testing.TB
	errs []string
}

func (r *recorder) Helper() {}
func (r *recorder) Errorf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

func TestCheckNamesEveryMismatch(t *testing.T) {
	golden, got := t.TempDir(), t.TempDir()
	write := func(dir, name, data string) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(golden, "same.json", `{"a":1}`)
	write(got, "same.json", `{"a":1}`)
	r := &recorder{TB: t}
	Check(r, golden, got, "regen")
	if len(r.errs) != 0 {
		t.Fatalf("identical directories reported %v", r.errs)
	}

	write(golden, "changed.json", `{"a":1}`)
	write(got, "changed.json", `{"a":2}`)
	write(golden, "lost.json", `{}`)
	write(got, "extra.json", `{}`)
	Check(r, golden, got, "regen")
	want := []string{
		"changed.json differs from its golden copy: .a: golden 1, got 2",
		"extra.json: written but has no golden copy",
		"lost.json: golden file not written",
		"regen",
	}
	if len(r.errs) != len(want) {
		t.Fatalf("Check reported %q, want one error per file and the regeneration hint", r.errs)
	}
	for i, w := range want {
		if !strings.Contains(r.errs[i], w) {
			t.Errorf("error %d = %q, want it to contain %q", i, r.errs[i], w)
		}
	}
}
