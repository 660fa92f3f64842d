package main

import (
	"flag"
	"reflect"
	"testing"

	"p3cmr"
	"p3cmr/internal/core"
)

// TestBuildConfigOverrides runs every -algo name with each override flag
// through the flag set and buildConfig: the Config must be the algorithm's
// preset with only the flagged parameter changed, in the core parameters or,
// for BoW, in the plug-in's.
func TestBuildConfigOverrides(t *testing.T) {
	flags := []struct {
		args []string
		set  func(*core.Params)
	}{
		{nil, func(*core.Params) {}},
		{[]string{"-theta", "0.9"}, func(p *core.Params) { p.ThetaCC = 0.9 }},
		{[]string{"-alpha-poi", "0.2"}, func(p *core.Params) { p.AlphaPoisson = 0.2 }},
		{[]string{"-alpha-chi", "0.5"}, func(p *core.Params) { p.AlphaChi2 = 0.5 }},
		{[]string{"-splits", "3"}, func(p *core.Params) { p.NumSplits = 3 }},
	}
	for name, alg := range algorithms {
		for _, f := range flags {
			fs := flag.NewFlagSet("p3crun", flag.ContinueOnError)
			o := overrideFlags(fs)
			if err := fs.Parse(f.args); err != nil {
				t.Fatal(err)
			}
			got := buildConfig(alg, *o)
			want := p3cmr.DefaultConfig(alg)
			if want.BoW != nil {
				f.set(&want.BoW.Plugin)
			} else {
				f.set(want.Params)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("-algo %s %v: got %+v / %+v, want %+v / %+v", name, f.args, got.Params, got.BoW, want.Params, want.BoW)
			}
		}
	}
}

// TestParamsHashPerVariant checks that every -algo name archives a distinct
// parameter fingerprint, and that an override changes it.
func TestParamsHashPerVariant(t *testing.T) {
	seen := map[string]string{}
	for name, alg := range algorithms {
		h := hashParams(buildConfig(alg, overrides{}))
		if other, dup := seen[h]; dup {
			t.Errorf("-algo %s and %s share ParamsHash %s", name, other, h)
		}
		seen[h] = name
		if hashParams(buildConfig(alg, overrides{theta: 0.9})) == h {
			t.Errorf("-algo %s: -theta does not change ParamsHash", name)
		}
	}
}
