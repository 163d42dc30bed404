package main

import (
	"slices"
	"strings"
	"testing"
)

func TestSelectExperimentsAll(t *testing.T) {
	got, err := selectExperiments("")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(experiments) {
		t.Fatalf("empty -only selected %d experiments, want all %d", len(got), len(experiments))
	}
}

func TestSelectExperimentsByName(t *testing.T) {
	for _, name := range experimentNames() {
		got, err := selectExperiments(name)
		if err != nil {
			t.Fatalf("-only %s: %v", name, err)
		}
		if len(got) != 1 || !slices.Contains(got[0].names, name) {
			t.Fatalf("-only %s selected %d experiments, want the one named %s", name, len(got), name)
		}
	}
	// E1 and E2 come from one run, so both names select the same entry.
	e1, _ := selectExperiments("e1")
	e2, _ := selectExperiments("e2")
	if !slices.Equal(e1[0].names, e2[0].names) {
		t.Fatalf("-only e2 selected %v, want the e1 entry %v", e2[0].names, e1[0].names)
	}
}

func TestSelectExperimentsUnknown(t *testing.T) {
	for _, name := range []string{"e10", "e12", "E1", "bogus"} {
		_, err := selectExperiments(name)
		if err == nil {
			t.Fatalf("-only %s: no error", name)
		}
		msg := err.Error()
		for _, valid := range experimentNames() {
			if !strings.Contains(msg, valid) {
				t.Fatalf("-only %s: error %q does not list %s", name, msg, valid)
			}
		}
	}
}
