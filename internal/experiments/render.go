package experiments

import (
	"fmt"
	"io"
	"strings"
)

// WriteCSV renders the table as RFC-4180-ish CSV (fields with commas or
// quotes are quoted).
func (t *Table) WriteCSV(w io.Writer) error {
	write := func(cells []string) error {
		out := make([]string, len(cells))
		for i, c := range cells {
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			out[i] = c
		}
		_, err := fmt.Fprintln(w, strings.Join(out, ","))
		return err
	}
	if err := write(t.Header); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if err := write(r); err != nil {
			return err
		}
	}
	return nil
}
