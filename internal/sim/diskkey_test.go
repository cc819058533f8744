package sim

import (
	"bytes"
	"reflect"
	"strconv"
	"testing"

	"selthrottle/internal/faultinject"
	"selthrottle/internal/prog"
)

// perturbLeaves calls visit once per leaf field reachable from v (struct
// fields and array elements, recursively), after changing that leaf alone,
// and restores it before moving on. Interface fields are skipped: the key
// accepts only a nil Pipe.Fault (see TestPointKeyRejectsFaultHook).
func perturbLeaves(t *testing.T, v reflect.Value, path string, visit func(path string)) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			perturbLeaves(t, v.Field(i), path+"."+v.Type().Field(i).Name, visit)
		}
		return
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			perturbLeaves(t, v.Index(i), path+"["+strconv.Itoa(i)+"]", visit)
		}
		return
	case reflect.Interface:
		return
	}
	saved := reflect.New(v.Type()).Elem()
	saved.Set(v)
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 1)
	case reflect.String:
		v.SetString(v.String() + "x")
	default:
		t.Fatalf("%s: key field of unsupported kind %s", path, v.Kind())
	}
	visit(path)
	v.Set(saved)
}

// TestPointKeyCoversEveryField: changing any single leaf field of the
// canonical Config or Profile changes the content address. The fields are
// found by reflection, so a field added later is covered without editing
// this test.
func TestPointKeyCoversEveryField(t *testing.T) {
	key := cacheKey{canonicalConfig(Default()), canonicalProfile(prog.Profiles()[0])}
	base := diskKeyOf(key)
	leaves := 0
	check := func(path string) {
		leaves++
		if diskKeyOf(key) == base {
			t.Errorf("perturbing %s leaves the content address unchanged", path)
		}
	}
	perturbLeaves(t, reflect.ValueOf(&key.cfg).Elem(), "Config", check)
	perturbLeaves(t, reflect.ValueOf(&key.profile).Elem(), "Profile", check)
	if diskKeyOf(key) != base {
		t.Fatal("perturbation was not restored")
	}
	if leaves < 60 {
		t.Fatalf("walked only %d leaf fields; the reflection walk is broken", leaves)
	}
}

// TestPointKeyStringsCannotRunTogether: the length prefix keeps adjacent
// strings apart, so moving bytes from one to the next changes the encoding.
func TestPointKeyStringsCannotRunTogether(t *testing.T) {
	type pair struct{ A, B string }
	enc := func(p pair) []byte { return appendKeyValue(nil, reflect.ValueOf(p)) }
	if bytes.Equal(enc(pair{"ab", "c"}), enc(pair{"a", "bc"})) {
		t.Fatal(`{"ab","c"} and {"a","bc"} encode identically`)
	}
	if bytes.Equal(enc(pair{"", "x"}), enc(pair{"x", ""})) {
		t.Fatal(`{"","x"} and {"x",""} encode identically`)
	}
}

// TestPointKeyRejectsFaultHook: a cacheable key never carries a fault hook,
// so deriving an address from one is a bug, not a cache miss.
func TestPointKeyRejectsFaultHook(t *testing.T) {
	key := cacheKey{canonicalConfig(Default()), canonicalProfile(prog.Profiles()[0])}
	key.cfg.Pipe.Fault = faultinject.NewPlan()
	defer func() {
		if recover() == nil {
			t.Fatal("a key carrying a fault hook was addressed")
		}
	}()
	diskKeyOf(key)
}

// TestPointKeyGolden pins one address. If this fails, the encoding or the
// shape of Config or Profile changed: bump diskKeySchema (so stores written
// under the old rules go cold instead of being misread), then update the
// pin.
func TestPointKeyGolden(t *testing.T) {
	const want = "0f19f6e988bc4719bca4b78a864b1aa499293ef5f3f081aa997371c92ce3380c"
	if got := PointKey(Default(), prog.Profiles()[0]).String(); got != want {
		t.Fatalf("PointKey(Default(), %s) = %s, want %s (schema %s)", prog.Profiles()[0].Name, got, want, diskKeySchema)
	}
}
