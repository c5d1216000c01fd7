package tlc

import (
	"fmt"
	"reflect"
	"testing"

	"tlc/internal/config"
	"tlc/internal/sim"
	"tlc/internal/workload"
)

// perturbLeaves visits every leaf field of v (recursing through structs and
// slice elements), applies a single perturbation, calls visit with a label,
// and restores the original value — so each invocation of visit sees exactly
// one field changed.
func perturbLeaves(v reflect.Value, path string, visit func(label string)) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			perturbLeaves(v.Field(i), path+"."+f.Name, visit)
		}
	case reflect.Slice:
		// Perturb each element, then the length itself.
		for i := 0; i < v.Len(); i++ {
			perturbLeaves(v.Index(i), fmt.Sprintf("%s[%d]", path, i), visit)
		}
		old := v.Interface()
		grown := reflect.MakeSlice(v.Type(), v.Len()+1, v.Len()+1)
		reflect.Copy(grown, v)
		v.Set(grown)
		visit(path + ".len")
		v.Set(reflect.ValueOf(old))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		old := v.Int()
		v.SetInt(old + 1)
		visit(path)
		v.SetInt(old)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		old := v.Uint()
		v.SetUint(old + 1)
		visit(path)
		v.SetUint(old)
	case reflect.Float32, reflect.Float64:
		old := v.Float()
		v.SetFloat(old + 0.125)
		visit(path)
		v.SetFloat(old)
	case reflect.Bool:
		old := v.Bool()
		v.SetBool(!old)
		visit(path)
		v.SetBool(old)
	case reflect.String:
		old := v.String()
		v.SetString(old + "x")
		visit(path)
		v.SetString(old)
	default:
		panic(fmt.Sprintf("perturbLeaves: unhandled kind %s at %s", v.Kind(), path))
	}
}

// TestConfigHashCoversEveryParameter drives configHashOf with every single
// field of the system, workload spec, NUCA parameters, and TLC parameters
// perturbed in turn, and asserts each perturbation changes the checkpoint
// key. This is the guarantee %+v formatting could not give: the key covers
// exactly the fields the keyHasher encoders enumerate, and this test fails
// the moment a struct grows a field the encoder does not fold (reflection
// walks the real struct, so a new field is perturbed here but ignored by the
// encoder, leaving the hash unchanged).
func TestConfigHashCoversEveryParameter(t *testing.T) {
	d := DesignTLC
	sys := config.DefaultSystem()
	spec, ok := workload.SpecByName("gcc")
	if !ok {
		t.Fatal("unknown benchmark gcc")
	}
	np := config.NUCAFor(config.DNUCA) // non-zero so nested mesh slices have elements
	tp := config.TLCFor(config.TLC)
	// Non-zero CMP axis so every coherence/sharing field has perturbable
	// content (the reflection walk covers Cores, Protocol, and the three
	// SharingSpec fields).
	cm := CMPConfig{Cores: 4, Protocol: "MSI", Sharing: SharingSpec{Pattern: "migratory", SharedMB: 2, SharedFrac: 0.25}}

	base := configHashOf(d, sys, spec, np, tp, cm)
	if again := configHashOf(d, sys, spec, np, tp, cm); again != base {
		t.Fatalf("configHashOf is not deterministic: %s vs %s", base, again)
	}

	seen := map[string]string{"": base}
	check := func(label string, h string) {
		t.Helper()
		if h == base {
			t.Errorf("perturbing %s did not change the config hash", label)
		}
		if prev, ok := seen[h]; ok && prev != label {
			t.Errorf("perturbing %s collides with %s (hash %s)", label, prev, h)
		}
		seen[h] = label
	}

	perturbLeaves(reflect.ValueOf(&sys).Elem(), "System", func(label string) {
		check(label, configHashOf(d, sys, spec, np, tp, cm))
	})
	perturbLeaves(reflect.ValueOf(&spec).Elem(), "Spec", func(label string) {
		check(label, configHashOf(d, sys, spec, np, tp, cm))
	})
	perturbLeaves(reflect.ValueOf(&np).Elem(), "NUCAParams", func(label string) {
		check(label, configHashOf(d, sys, spec, np, tp, cm))
	})
	perturbLeaves(reflect.ValueOf(&tp).Elem(), "TLCParams", func(label string) {
		check(label, configHashOf(d, sys, spec, np, tp, cm))
	})
	perturbLeaves(reflect.ValueOf(&cm).Elem(), "CMPConfig", func(label string) {
		check(label, configHashOf(d, sys, spec, np, tp, cm))
	})

	check("Design", configHashOf(DesignSNUCA2, sys, spec, np, tp, cm))
}

// TestConfigHashSliceBoundaries asserts the length-prefixed slice encoding
// cannot alias element moves across adjacent slices — the classic failure
// mode of concatenating variable-length fields without framing.
func TestConfigHashSliceBoundaries(t *testing.T) {
	d := DesignDNUCA
	sys := config.DefaultSystem()
	spec, ok := workload.SpecByName("gcc")
	if !ok {
		t.Fatal("unknown benchmark gcc")
	}
	tp := config.TLCParams{}

	a := config.NUCAFor(config.DNUCA)
	b := config.NUCAFor(config.DNUCA)
	// Move the last VertReqLat element to the front of VertRespLat: the raw
	// concatenation of the two slices is unchanged, only the boundary moves.
	a.Mesh.VertReqLat = []sim.Time{1, 2, 3}
	a.Mesh.VertRespLat = []sim.Time{4, 5}
	b.Mesh.VertReqLat = []sim.Time{1, 2}
	b.Mesh.VertRespLat = []sim.Time{3, 4, 5}

	cm := CMPConfig{Cores: 1}
	ha := configHashOf(d, sys, spec, a, tp, cm)
	hb := configHashOf(d, sys, spec, b, tp, cm)
	if ha == hb {
		t.Fatalf("slice boundary move did not change the config hash (%s)", ha)
	}
}

// TestConfigHashDistinctPerDesign asserts the six designs produce six
// distinct checkpoint keys for the same benchmark — the property
// TestCheckpointKeySeparatesConfigurations relies on.
func TestConfigHashDistinctPerDesign(t *testing.T) {
	spec, ok := workload.SpecByName("mcf")
	if !ok {
		t.Fatal("unknown benchmark mcf")
	}
	hashes := map[string]Design{}
	for _, d := range Designs() {
		h := configHash(d, spec, CMPConfig{Cores: 1})
		if prev, ok := hashes[h]; ok {
			t.Errorf("designs %v and %v share config hash %s", prev, d, h)
		}
		hashes[h] = d
	}
}
