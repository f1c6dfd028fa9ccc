package bench

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"supermem/internal/config"
	"supermem/internal/workload"
)

func kvSpec() Spec {
	cfg := config.Default()
	return Spec{
		Base:           cfg,
		Workload:       "kv",
		Scheme:         config.SuperMem,
		TxBytes:        256,
		Transactions:   10,
		Cores:          2,
		FootprintBytes: 1 << 20,
		Seed:           7,
		KV:             workload.KVConfig{Keys: 128, Theta: 0.99},
	}
}

// TestTraceKeyCoversNewParams: two specs differing only in a workload
// parameter the legacy hand-copied key never knew about (the KV knobs)
// must get distinct cache entries. Before keyOf switched to reflection,
// a new Spec field was silently unkeyed and cells differing only in it
// replayed one shared recording.
func TestTraceKeyCoversNewParams(t *testing.T) {
	a := kvSpec()
	b := kvSpec()
	b.KV.Theta = 0
	if keyOf(a) == keyOf(b) {
		t.Fatal("specs differing only in KV.Theta share a trace key")
	}
	c := kvSpec()
	c.KV.UpdatePct = 50
	c.KV.ReadPct = 50
	if keyOf(a) == keyOf(c) {
		t.Fatal("specs differing only in the KV mix share a trace key")
	}
}

// TestTraceKeyFailsClosed: every Spec field outside unkeyedSpecFields
// must appear in the key, so a field added tomorrow is keyed by default.
// Perturbing any keyed leaf must change the key.
func TestTraceKeyFailsClosed(t *testing.T) {
	spec := kvSpec()
	key := keyOf(spec)
	tt := reflect.TypeOf(spec)
	for i := 0; i < tt.NumField(); i++ {
		f := tt.Field(i)
		if _, excluded := unkeyedSpecFields[f.Name]; excluded {
			continue
		}
		if !strings.Contains(key, f.Name+"=") {
			t.Errorf("keyed field %s missing from trace key %q", f.Name, key)
		}
	}

	// Perturb every keyed leaf field and require a key change.
	perturbed := 0
	var perturb func(v reflect.Value, name string)
	perturb = func(v reflect.Value, name string) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				perturb(v.Field(i), name+"."+v.Type().Field(i).Name)
			}
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				perturb(v.Index(i), fmt.Sprintf("%s[%d]", name, i))
			}
		case reflect.Bool:
			old := v.Bool()
			v.SetBool(!old)
			if keyOf(spec) == key {
				t.Errorf("flipping %s did not change the trace key", name)
			}
			v.SetBool(old)
			perturbed++
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			old := v.Int()
			v.SetInt(old + 1)
			if keyOf(spec) == key {
				t.Errorf("changing %s did not change the trace key", name)
			}
			v.SetInt(old)
			perturbed++
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			old := v.Uint()
			v.SetUint(old + 1)
			if keyOf(spec) == key {
				t.Errorf("changing %s did not change the trace key", name)
			}
			v.SetUint(old)
			perturbed++
		case reflect.Float32, reflect.Float64:
			old := v.Float()
			v.SetFloat(old + 0.125)
			if keyOf(spec) == key {
				t.Errorf("changing %s did not change the trace key", name)
			}
			v.SetFloat(old)
			perturbed++
		case reflect.String:
			old := v.String()
			v.SetString(old + "x")
			if keyOf(spec) == key {
				t.Errorf("changing %s did not change the trace key", name)
			}
			v.SetString(old)
			perturbed++
		default:
			t.Errorf("unhandled kind %v at %s", v.Kind(), name)
		}
	}
	sv := reflect.ValueOf(&spec).Elem()
	st := sv.Type()
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		if _, excluded := unkeyedSpecFields[f.Name]; excluded {
			continue
		}
		perturb(sv.Field(i), "Spec."+f.Name)
	}
	if perturbed < 10 {
		t.Fatalf("only %d leaf fields perturbed; the walk looks broken", perturbed)
	}
	if keyOf(spec) != key {
		t.Fatal("perturbation did not restore the spec")
	}
}

// TestTraceKeySharesAcrossSchemes: the sharing the cache exists for —
// scheme and (beyond banks/capacity) the config template stay out of
// the key, so a row's schemes replay one recording.
func TestTraceKeySharesAcrossSchemes(t *testing.T) {
	a := kvSpec()
	b := kvSpec()
	b.Scheme = config.WT
	b.Base.CounterCache.SizeBytes *= 2
	if keyOf(a) != keyOf(b) {
		t.Fatalf("scheme/uncore variants should share a trace key:\n%q\n%q", keyOf(a), keyOf(b))
	}
	c := kvSpec()
	c.Base.Banks *= 2
	if keyOf(a) == keyOf(c) {
		t.Fatal("bank count must be keyed: it shapes the address layout")
	}
}

// TestTraceKeySharesAcrossCoreModels: the core timing model and its
// sizing knobs replay the recorded stream — they never shape it — so an
// MLP grid's model variants must share one recording, and the cache
// must actually hit.
func TestTraceKeySharesAcrossCoreModels(t *testing.T) {
	a := kvSpec()
	b := kvSpec()
	b.CoreModel = config.CoreOoO
	b.Base.CoreModels[1] = config.CoreInOrder
	b.Base.OoOWidth = 8
	b.Base.MSHREntries = 16
	b.Base.PrefetchDegree = 4
	if keyOf(a) != keyOf(b) {
		t.Fatalf("core-model variants should share a trace key:\n%q\n%q", keyOf(a), keyOf(b))
	}
	a.Transactions = 5
	b.Transactions = 5
	cache := NewTraceCache()
	if _, err := cache.Sources(a); err != nil {
		t.Fatal(err)
	}
	if _, err := cache.Sources(b); err != nil {
		t.Fatal(err)
	}
	if hits, misses := cache.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1: model variants must share the recording", hits, misses)
	}
}

// TestMustKeyByValuePanics: reference-typed fields cannot be keyed by
// %v; the key builder must refuse them loudly instead of keying on
// storage addresses.
func TestMustKeyByValuePanics(t *testing.T) {
	bad := []struct {
		name string
		t    reflect.Type
	}{
		{"pointer", reflect.TypeOf((*int)(nil))},
		{"slice", reflect.TypeOf([]int(nil))},
		{"map", reflect.TypeOf(map[string]int(nil))},
		{"struct with pointer", reflect.TypeOf(struct{ P *int }{})},
		{"chan", reflect.TypeOf((chan int)(nil))},
	}
	for _, tc := range bad {
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Errorf("%s: mustKeyByValue did not panic", tc.name)
				} else if !strings.Contains(fmt.Sprint(r), "Spec.X") {
					t.Errorf("%s: panic %v does not name the field", tc.name, r)
				}
			}()
			mustKeyByValue("Spec.X", tc.t)
		}()
	}
	// And every keyed Spec field must pass (Base is excluded from keying,
	// so its pointer-typed members are allowed there).
	st := reflect.TypeOf(Spec{})
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		if _, excluded := unkeyedSpecFields[f.Name]; excluded {
			continue
		}
		mustKeyByValue("Spec."+f.Name, f.Type)
	}
}

// TestTraceCacheDistinctEntries: the cache itself (not just the key
// function) keeps specs differing only in a KV knob apart — a.k.a. the
// end-to-end regression for the shared-recording bug.
func TestTraceCacheDistinctEntries(t *testing.T) {
	a := kvSpec()
	a.Transactions = 5
	b := a
	b.KV.Theta = 0

	cache := NewTraceCache()
	if _, err := cache.Sources(a); err != nil {
		t.Fatal(err)
	}
	if _, err := cache.Sources(b); err != nil {
		t.Fatal(err)
	}
	if hits, misses := cache.Stats(); hits != 0 || misses != 2 {
		t.Fatalf("hits/misses = %d/%d, want 0/2: theta variants must not share", hits, misses)
	}

	// Same spec again (different scheme) is the intended hit.
	c := a
	c.Scheme = config.WT
	if _, err := cache.Sources(c); err != nil {
		t.Fatal(err)
	}
	if hits, _ := cache.Stats(); hits != 1 {
		t.Fatalf("hits = %d, want 1: scheme variants must share", hits)
	}
}
