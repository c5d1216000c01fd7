package report

import (
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	tb := NewTable("Demo", "name", "value")
	tb.AddRow("short", 1)
	tb.AddRow("much-longer-name", 123.456)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Title, underline, header, separator, two rows.
	if len(lines) != 6 {
		t.Fatalf("%d lines, want 6:\n%s", len(lines), out)
	}
	if lines[0] != "Demo" {
		t.Fatalf("title line %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "====") {
		t.Fatalf("missing underline: %q", lines[1])
	}
	// All data lines share the header's column start for column 2.
	idx := strings.Index(lines[2], "value")
	if idx < 0 {
		t.Fatal("header missing")
	}
	if !strings.HasPrefix(lines[4][idx:], "1") {
		t.Fatalf("misaligned column:\n%s", out)
	}
}

func TestTableWithoutTitle(t *testing.T) {
	tb := NewTable("", "a")
	tb.AddRow("x")
	if strings.Contains(tb.String(), "=") {
		t.Fatal("untitled table should not have an underline")
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:        "0",
		12345:    "12345",
		42.37:    "42.4",
		3.14159:  "3.14",
		0.061234: "0.061",
	}
	for v, want := range cases {
		if got := FormatFloat(v); got != want {
			t.Errorf("FormatFloat(%v)=%q, want %q", v, got, want)
		}
	}
}

func TestFigureRendersAllSeries(t *testing.T) {
	f := NewFigure("Fig", []string{"gcc", "mcf"})
	f.AddSeries("DNUCA", []float64{1.0, 2.0})
	f.AddSeries("TLC", []float64{3.0, 4.0})
	out := f.String()
	for _, want := range []string{"Fig", "gcc", "mcf", "DNUCA", "TLC", "1.00", "4.00"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure output missing %q:\n%s", want, out)
		}
	}
}

func TestFigureWithUnit(t *testing.T) {
	f := NewFigure("Fig", []string{"x"})
	f.Unit = "mW"
	f.AddSeries("s", []float64{1})
	if !strings.Contains(f.String(), "s (mW)") {
		t.Fatal("unit annotation missing")
	}
}
