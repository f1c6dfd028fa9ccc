package stats

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestMetricsDerived(t *testing.T) {
	m := Metrics{Transactions: 4, TxCycles: 400, DataWrites: 10, CounterWrites: 5,
		CtrCacheHits: 30, CtrCacheMisses: 10}
	if got := m.AvgTxCycles(); got != 100 {
		t.Errorf("AvgTxCycles = %v, want 100", got)
	}
	if got := m.TotalNVMWrites(); got != 15 {
		t.Errorf("TotalNVMWrites = %v, want 15", got)
	}
	if got := m.CtrCacheHitRate(); got != 0.75 {
		t.Errorf("CtrCacheHitRate = %v, want 0.75", got)
	}
}

func TestMetricsZeroSafe(t *testing.T) {
	var m Metrics
	if m.AvgTxCycles() != 0 || m.CtrCacheHitRate() != 0 {
		t.Fatal("zero metrics produced NaN-prone values")
	}
}

func TestMetricsAdd(t *testing.T) {
	a := Metrics{Cycles: 100, Transactions: 2, DataWrites: 5, WQStallCycles: 7}
	b := Metrics{Cycles: 300, Transactions: 3, DataWrites: 6, WQStallCycles: 1}
	a.Add(b)
	if a.Cycles != 300 {
		t.Errorf("Cycles should take max across cores: got %d", a.Cycles)
	}
	if a.Transactions != 5 || a.DataWrites != 11 || a.WQStallCycles != 8 {
		t.Errorf("Add did not sum counters: %+v", a)
	}
}

// TestMetricsRulesFailClosed holds every Metrics field to the merge
// declaration: it must be a uint64 with a known stat tag, and Add and
// Sub must treat it exactly as that tag says. A field added without a
// rule, or a rule Add or Sub ignores, fails here.
func TestMetricsRulesFailClosed(t *testing.T) {
	tt := reflect.TypeOf(Metrics{})
	var a, b Metrics
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < tt.NumField(); i++ {
		f := tt.Field(i)
		if f.Type.Kind() != reflect.Uint64 {
			t.Errorf("Metrics.%s is %v, want uint64", f.Name, f.Type)
			continue
		}
		switch tag := f.Tag.Get("stat"); tag {
		case "", "max", "whole-run":
		default:
			t.Errorf("Metrics.%s has unknown tag stat:%q", f.Name, tag)
		}
		// Distinct per-field values, a's above b's.
		av.Field(i).SetUint(uint64(1000 + 7*i))
		bv.Field(i).SetUint(uint64(10 + 3*i))
	}
	if t.Failed() {
		return
	}

	sum, sumRev, diff := a, b, a
	sum.Add(b)
	sumRev.Add(a)
	diff.Sub(b)
	sv, rv, dv := reflect.ValueOf(sum), reflect.ValueOf(sumRev), reflect.ValueOf(diff)
	for i := 0; i < tt.NumField(); i++ {
		f := tt.Field(i)
		x, y := av.Field(i).Uint(), bv.Field(i).Uint()
		wantAdd, wantSub := x+y, x-y
		switch f.Tag.Get("stat") {
		case "max":
			wantAdd = x
		case "whole-run":
			wantSub = x
		}
		if got := sv.Field(i).Uint(); got != wantAdd {
			t.Errorf("Add: %s = %d, want %d", f.Name, got, wantAdd)
		}
		if got := rv.Field(i).Uint(); got != wantAdd {
			t.Errorf("Add (reversed): %s = %d, want %d", f.Name, got, wantAdd)
		}
		if got := dv.Field(i).Uint(); got != wantSub {
			t.Errorf("Sub: %s = %d, want %d", f.Name, got, wantSub)
		}
	}
}

func TestTableCellLookup(t *testing.T) {
	tb := NewTable("fig", "Unsec", "WT")
	tb.AddRow("array", 1.0, 2.0)
	tb.AddRow("queue", 1.5, 2.5)
	if got := tb.Cell("queue", "WT"); got != 2.5 {
		t.Errorf("Cell = %v, want 2.5", got)
	}
	if tb.Rows() != 2 {
		t.Errorf("Rows = %d, want 2", tb.Rows())
	}
	labels := tb.RowLabels()
	if labels[0] != "array" || labels[1] != "queue" {
		t.Errorf("RowLabels = %v", labels)
	}
}

func TestTableCellPanicsOnUnknown(t *testing.T) {
	tb := NewTable("fig", "A")
	tb.AddRow("r", 1)
	for _, f := range []func(){
		func() { tb.Cell("r", "missing") },
		func() { tb.Cell("missing", "A") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Cell did not panic on unknown label")
				}
			}()
			f()
		}()
	}
}

func TestAddRowArityPanics(t *testing.T) {
	tb := NewTable("fig", "A", "B")
	defer func() {
		if recover() == nil {
			t.Fatal("AddRow accepted wrong arity")
		}
	}()
	tb.AddRow("r", 1)
}

func TestNormalize(t *testing.T) {
	tb := NewTable("lat", "Unsec", "WT", "SuperMem")
	tb.AddRow("array", 100, 200, 110)
	n := tb.Normalize("Unsec")
	if got := n.Cell("array", "WT"); got != 2.0 {
		t.Errorf("normalized WT = %v, want 2", got)
	}
	if got := n.Cell("array", "Unsec"); got != 1.0 {
		t.Errorf("normalized baseline = %v, want 1", got)
	}
	if w := n.Warnings(); len(w) != 0 {
		t.Errorf("unexpected warnings: %v", w)
	}
}

// A zero baseline must not silently emit an all-zero row (which would
// poison figure-shape checks downstream): the row is skipped and the
// skip is reported via Warnings.
func TestNormalizeSkipsZeroBaseline(t *testing.T) {
	tb := NewTable("z", "A", "B")
	tb.AddRow("ok", 2, 6)
	tb.AddRow("poisoned", 0, 5)
	n := tb.Normalize("A")
	if n.Rows() != 1 {
		t.Fatalf("Rows = %d, want 1 (zero-baseline row skipped)", n.Rows())
	}
	if got := n.Cell("ok", "B"); got != 3 {
		t.Errorf("surviving row B = %v, want 3", got)
	}
	w := n.Warnings()
	if len(w) != 1 || !strings.Contains(w[0], "poisoned") || !strings.Contains(w[0], `"A"`) {
		t.Errorf("Warnings = %v, want one naming the row and baseline", w)
	}
	for _, r := range n.RowLabels() {
		if r == "poisoned" {
			t.Error("zero-baseline row present in normalized table")
		}
	}
}

func TestStringRendersAllCells(t *testing.T) {
	tb := NewTable("my title", "ColA", "ColB")
	tb.AddRow("rowone", 1.25, 42000)
	s := tb.String()
	for _, want := range []string{"my title", "ColA", "ColB", "rowone", "1.250", "42000"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestCSV(t *testing.T) {
	tb := NewTable("csv", "A", "B")
	tb.AddRow("r1", 1.5, 2)
	tb.AddRow("r2", 0.25, 42000)
	got := tb.CSV()
	want := "label,A,B\nr1,1.5,2\nr2,0.25,42000\n"
	if got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}

// Labels and headers containing commas, quotes, or newlines must be
// RFC 4180-quoted so the CSV stays machine-parseable.
func TestCSVQuotesSpecialFields(t *testing.T) {
	tb := NewTable("csv", "tx=64, hot", `say "hi"`)
	tb.AddRow("btree, zipf 0.99", 1, 2)
	tb.AddRow("plain", 3, 4)
	got := tb.CSV()
	want := "label,\"tx=64, hot\",\"say \"\"hi\"\"\"\n" +
		"\"btree, zipf 0.99\",1,2\n" +
		"plain,3,4\n"
	if got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
	if !strings.HasPrefix(strings.Split(got, "\n")[1], `"`) {
		t.Fatal("comma-bearing label not quoted")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tb := NewTable("json", "A", "B")
	tb.AddRow("r1", 1.5, 2)
	tb.AddRow("r2", 0.25, 42000)
	data, err := json.Marshal(tb)
	if err != nil {
		t.Fatal(err)
	}
	var got Table
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.String() != tb.String() {
		t.Fatalf("round trip changed table:\n%s\nvs\n%s", got.String(), tb.String())
	}
}

func TestUnmarshalRejectsRaggedRows(t *testing.T) {
	var got Table
	err := json.Unmarshal([]byte(`{"title":"t","columns":["A","B"],"rows":[{"label":"r","cells":[1]}]}`), &got)
	if err == nil {
		t.Fatal("accepted row with wrong cell count")
	}
}
