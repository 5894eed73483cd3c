package workload

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// csvScanner reads the rows of a CSV document held in one string, in the
// language encoding/csv's Reader reads with TrimLeadingSpace set and its other
// options at their defaults: ',' separates fields; leading Unicode space is
// trimmed from every field; a field that then starts with '"' is quoted, may
// span lines and escapes '"' as `""`, and its closing quote must be followed
// by ',' or the end of the line; a '"' anywhere in an unquoted field is an
// error. A "\r\n" line ending reads as "\n" (inside a quoted field too), a
// '\r' that ends the input is dropped, and blank lines are skipped.
//
// A row is read in one of two ways. A line that holds no '"' — every row of
// a generated trace — is cut at its first '\n' and split at its commas: each
// field loses its leading space and the last one a trailing '\r'. A line
// with a '"' in it is read field by field, the only path that reads a quoted
// field, which may run on past the line.
//
// An unquoted field, and a quoted one with nothing to unescape, is a
// substring of the document, so it costs no allocation; a quoted field with a
// `""` or a "\r\n" in it is unescaped into one reused buffer and copied out
// as its own string.
type csvScanner struct {
	rest   string   // the input not yet scanned
	line   int      // the line rest starts on, counting from 1
	fields int      // fields a row must have; 0 = any number
	row    []string // the fields of the row next returned; reused
	buf    []byte   // a quoted field's unescaped bytes; reused
}

// next scans the next row into s.row. It reports false at the end of the
// input.
func (s *csvScanner) next() (bool, error) {
	for { // skip blank lines
		if strings.HasPrefix(s.rest, "\n") {
			s.rest = s.rest[1:]
		} else if strings.HasPrefix(s.rest, "\r\n") {
			s.rest = s.rest[2:]
		} else {
			break
		}
		s.line++
	}
	if s.rest == "" || s.rest == "\r" {
		return false, nil
	}
	start := s.line
	s.row = s.row[:0]
	if line, rest, found := strings.Cut(s.rest, "\n"); strings.IndexByte(line, '"') < 0 {
		for {
			comma := strings.IndexByte(line, ',')
			if comma < 0 {
				break
			}
			s.row = append(s.row, line[leadingSpace(line):comma])
			line = line[comma+1:]
		}
		s.row = append(s.row, strings.TrimSuffix(line[leadingSpace(line):], "\r"))
		s.rest = rest
		if found {
			s.line++
		}
	} else {
		for more := true; more; {
			var field string
			var err error
			field, more, err = s.field()
			if err != nil {
				return false, fmt.Errorf("line %d: %w", s.line, err)
			}
			s.row = append(s.row, field)
		}
	}
	if s.fields != 0 && len(s.row) != s.fields {
		return false, fmt.Errorf("line %d: %d fields, want %d", start, len(s.row), s.fields)
	}
	return true, nil
}

// leadingSpace returns the length of text's leading run of Unicode space,
// '\n' aside: the bytes a field's value starts after.
func leadingSpace(text string) int {
	i := 0
	for i < len(text) {
		c := text[i]
		if c < utf8.RuneSelf {
			if c != ' ' && c != '\t' && c != '\r' && c != '\v' && c != '\f' {
				break
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(text[i:])
		if !unicode.IsSpace(r) {
			break
		}
		i += size
	}
	return i
}

// field scans one field and the separator after it; more reports that a
// ',' followed it, not the end of its row.
func (s *csvScanner) field() (field string, more bool, err error) {
	rest := s.rest
	i := leadingSpace(rest)
	if i < len(rest) && rest[i] == '\n' { // the row ends in space
		s.rest = rest[i+1:]
		s.line++
		return "", false, nil
	}
	if i < len(rest) && rest[i] == '"' {
		return s.quoted(rest, i+1)
	}
	j := i
	for j < len(rest) && rest[j] != ',' && rest[j] != '\n' {
		if rest[j] == '"' {
			return "", false, fmt.Errorf(`bare " in unquoted field`)
		}
		j++
	}
	field = rest[i:j]
	switch {
	case j == len(rest): // the input's last line; a final '\r' is dropped
		s.rest = ""
		return strings.TrimSuffix(field, "\r"), false, nil
	case rest[j] == ',':
		s.rest = rest[j+1:]
		return field, true, nil
	default: // '\n', which a '\r' before it belongs to
		s.rest = rest[j+1:]
		s.line++
		return strings.TrimSuffix(field, "\r"), false, nil
	}
}

// quoted scans the quoted field whose text starts at rest[open], just after
// its opening quote.
func (s *csvScanner) quoted(rest string, open int) (field string, more bool, err error) {
	escaped := false
	s.buf = s.buf[:0]
	for p := open; ; {
		q := strings.IndexByte(rest[p:], '"')
		if q < 0 {
			return "", false, fmt.Errorf(`quoted field has no closing "`)
		}
		seg, after := rest[p:p+q], rest[p+q+1:]
		if strings.HasPrefix(after, `"`) { // `""`
			s.buf = append(appendLF(s.buf, seg), '"')
			escaped = true
			p += q + 2
			continue
		}
		text := rest[open : p+q]
		field = text
		if escaped || strings.Contains(text, "\r\n") {
			s.buf = appendLF(s.buf, seg) // seg == text unless escaped
			field = string(s.buf)
		}
		s.line += strings.Count(text, "\n")
		switch {
		case strings.HasPrefix(after, ","):
			s.rest = after[1:]
			return field, true, nil
		case after == "" || after == "\r":
			s.rest = ""
			return field, false, nil
		case strings.HasPrefix(after, "\n"):
			s.rest = after[1:]
		case strings.HasPrefix(after, "\r\n"):
			s.rest = after[2:]
		default:
			return "", false, fmt.Errorf(`text after the closing " of a quoted field`)
		}
		s.line++
		return field, false, nil
	}
}

// appendLF appends text to b with every "\r\n" in it read as "\n".
func appendLF(b []byte, text string) []byte {
	for {
		i := strings.Index(text, "\r\n")
		if i < 0 {
			return append(b, text...)
		}
		b = append(b, text[:i]...)
		text = text[i+1:]
	}
}
