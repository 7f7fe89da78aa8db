package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func sampleTable() *Table {
	t := &Table{
		Title:  "T",
		Header: []string{"Dataset", "Ratio", "Method", "SMAPE"},
	}
	t.Append("LA", 0.3, "PeGaSus", 0.5)
	t.Append("LA", 0.5, "PeGaSus", 0.4)
	t.Append("LA", 0.3, "SSumM", 0.6)
	t.Append("LA", 0.5, "SSumM", 0.55)
	t.Append("LA", 0.5, "k-GraSS", "oot")
	return t
}

func TestWriteCSV(t *testing.T) {
	tab := sampleTable()
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 6 {
		t.Fatalf("CSV has %d lines, want 6", len(lines))
	}
	if lines[0] != "Dataset,Ratio,Method,SMAPE" {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "LA,0.3,PeGaSus,") {
		t.Fatalf("row = %q", lines[1])
	}
}

func TestWriteCSVQuoting(t *testing.T) {
	tab := &Table{Header: []string{"a"}, Rows: [][]string{{`x,"y"`}}}
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"x,""y"""`) {
		t.Fatalf("quoting wrong: %q", buf.String())
	}
}
