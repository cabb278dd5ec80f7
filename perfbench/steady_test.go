package main

import (
	"os"
	"testing"
)

func TestDeclaredBoundsRefusesMissingOrEmptyDeclaration(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	if _, err := declaredBounds(); err == nil {
		t.Errorf("no %s gave bounds", benchmarkFile)
	}
	for _, decl := range []string{`{"end_to_end": [`, `{"end_to_end": []}`, `{"end_to_end": [{"name": "setup_s"}]}`} {
		if err := os.WriteFile(benchmarkFile, []byte(decl), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := declaredBounds(); err == nil {
			t.Errorf("%s gave bounds", decl)
		}
	}
	if err := os.WriteFile(benchmarkFile, []byte(`{"end_to_end": [{"name": "setup_s", "bound": 0.25}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := declaredBounds()
	if err != nil || b["setup_s"] != 0.25 {
		t.Errorf("declaredBounds() = %v, %v", b, err)
	}
}
