// Package report renders the paper's tables and figure series as aligned
// text, for cmd/tlctables, the benchmark harness, and EXPERIMENTS.md.
package report

import (
	"fmt"
	"strings"

	"tlc/internal/stats"
)

// Table is a simple aligned text table with a title and column headers.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable starts a table.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; values are formatted with %v unless already
// strings.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = FormatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// FormatFloat renders a float compactly: integers without decimals, small
// values with enough precision to be meaningful.
func FormatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	case v >= 0.1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	cols := len(t.Headers)
	for _, r := range t.Rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	measure := func(row []string) {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.Headers)
	for _, r := range t.Rows {
		measure(r)
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
		b.WriteString(strings.Repeat("=", len(t.Title)))
		b.WriteByte('\n')
	}
	writeRow := func(row []string) {
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(row) {
				cell = row[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, cols)
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// Figure renders a set of named series (one per design) over shared labels
// (one per benchmark) as a table plus, optionally, ASCII bars.
type Figure struct {
	Title  string
	Labels []string
	Series []stats.Series
	// Unit annotates the value column.
	Unit string
}

// NewFigure starts a figure over the given x labels.
func NewFigure(title string, labels []string) *Figure {
	return &Figure{Title: title, Labels: labels}
}

// AddSeries appends one series; its values must align with the labels.
func (f *Figure) AddSeries(name string, values []float64) {
	f.Series = append(f.Series, stats.Series{Name: name, Labels: f.Labels, Values: values})
}

// String renders the figure as an aligned table of label x series.
func (f *Figure) String() string {
	headers := []string{""}
	for _, s := range f.Series {
		h := s.Name
		if f.Unit != "" {
			h += " (" + f.Unit + ")"
		}
		headers = append(headers, h)
	}
	t := NewTable(f.Title, headers...)
	for i, label := range f.Labels {
		cells := []interface{}{label}
		for _, s := range f.Series {
			if i < len(s.Values) {
				cells = append(cells, s.Values[i])
			} else {
				cells = append(cells, "")
			}
		}
		t.AddRow(cells...)
	}
	return t.String()
}
