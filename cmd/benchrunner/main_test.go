package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"websearchbench/internal/experiments"
)

// TestUsageErrors checks that a selector the roster does not hold, and a
// stray positional argument, exit 2 and list the valid IDs in roster
// order without running anything.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-only", "nope"},
		{"-only", "e7"},
		{"E7"},
		{"-scale", "0.05", "E7"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
		if !strings.Contains(errOut.String(), experiments.IDs()) {
			t.Errorf("run(%q) stderr %q does not list the valid IDs", args, errOut.String())
		}
		if out.Len() != 0 {
			t.Errorf("run(%q) ran an experiment: %q", args, out.String())
		}
	}
}

// TestJSONOutput checks -json writes an instrumented experiment's
// records, and refuses — non-zero exit naming the experiment, no file —
// when the selected experiment emits none.
func TestJSONOutput(t *testing.T) {
	dir := t.TempDir()

	path := filepath.Join(dir, "abl.json")
	var out, errOut bytes.Buffer
	if code := run([]string{"-scale", "0.05", "-only", "ABL-6", "-json", path}, &out, &errOut); code != 0 {
		t.Fatalf("instrumented run exited %d: %s", code, errOut.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var records []experiments.Record
	if err := json.Unmarshal(data, &records); err != nil {
		t.Fatal(err)
	}
	if len(records) == 0 || records[0].Experiment != "ABL-6" {
		t.Errorf("records = %+v, want ABL-6 rows", records)
	}

	path = filepath.Join(dir, "e1.json")
	errOut.Reset()
	if code := run([]string{"-scale", "0.05", "-only", "E1", "-json", path}, &out, &errOut); code != 1 {
		t.Errorf("record-less run exited %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "experiment E1 ") {
		t.Errorf("stderr %q does not name the experiment", errOut.String())
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("record-less run left %s behind (stat err %v)", path, err)
	}
}
