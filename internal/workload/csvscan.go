package workload

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"unicode"
	"unicode/utf8"
)

// maxCSVWindow is the most of a CSV document a decoder holds at once, unless
// one row is longer.
const maxCSVWindow = 64 << 10

// csvWindow sizes a decoder's window for a document of size bytes: the whole
// document, up to maxCSVWindow, so a small trace costs no more than its own
// length.
func csvWindow(size int64) int { return int(min(size, maxCSVWindow)) }

// csvScanner reads the rows of a CSV document, in the language
// encoding/csv's Reader reads with TrimLeadingSpace set and its other options
// at their defaults: ',' separates fields; leading Unicode space is trimmed
// from every field; a field that then starts with '"' is quoted, may span
// lines and escapes '"' as `""`, and its closing quote must be followed by ','
// or the end of the line; a '"' anywhere in an unquoted field is an error. A
// "\r\n" line ending reads as "\n" (inside a quoted field too), a '\r' that
// ends the input is dropped, and blank lines are skipped.
//
// The document is size bytes read from r through one reused window. A row
// that runs past the window's end is scanned again once the window is
// refilled: its unscanned bytes move to the front and the rest of the window
// is read after them, and a row that fills the whole window doubles it. So
// every test for the end of the input — a final '\r', a last line with no
// '\n', a quote never closed — holds only at the end of the document, never
// at the end of a window.
//
// A row is read in one of two ways. A line that holds no '"' — every row of
// a generated trace — is cut at its first '\n' and split at its commas: each
// field loses its leading space and the last one a trailing '\r'. A line
// with a '"' in it is read field by field, the only path that reads a quoted
// field, which may run on past the line.
//
// An unquoted field, and a quoted one with nothing to unescape, is a view of
// the window, so it costs no allocation and is valid only until the next
// call to next: a caller copies what it keeps. A quoted field with a `""` or
// a "\r\n" in it is unescaped into one reused buffer and copied out as its
// own string.
type csvScanner struct {
	r      io.ReaderAt
	size   int64    // the document's length
	off    int64    // the document offset the window's bytes end at
	win    []byte   // the window: the bytes read and not yet dropped
	rest   string   // the window's bytes not yet scanned: a view of win
	eof    bool     // rest runs to the end of the document
	line   int      // the line rest starts on, counting from 1
	fields int      // fields a row must have; 0 = any number
	row    []string // the fields of the row next returned; reused
	buf    []byte   // a quoted field's unescaped bytes; reused
}

// errMore is how a scan reports that its row runs past the window's end; it
// never leaves the scanner.
var errMore = errors.New("csv: the row runs past the window")

// count reads the whole document once through the window, before the first
// row is scanned. It returns how many rows the document can hold, the
// header's among them — its '\n's, and a last line with none — and idBytes,
// the sum over its lines of the bytes before each line's first ',' (the whole
// line where it has none): room for every job ID an unquoted first field
// holds. A document the window holds whole stays in it for the scan.
func (s *csvScanner) count() (rows, idBytes int, err error) {
	first := true // the bytes read so far end in a line's first field
	var last byte
	for off := int64(0); off < s.size; {
		chunk := s.win[:min(int64(cap(s.win)), s.size-off)]
		if err := s.readAt(chunk, off); err != nil {
			return 0, 0, err
		}
		off += int64(len(chunk))
		last = chunk[len(chunk)-1]
		for b := chunk; len(b) > 0; {
			line, nl := b, bytes.IndexByte(b, '\n')
			if nl >= 0 {
				line = b[:nl]
			}
			if first {
				if comma := bytes.IndexByte(line, ','); comma >= 0 {
					idBytes += comma
					first = false
				} else {
					idBytes += len(line)
				}
			}
			if nl < 0 {
				break
			}
			rows++
			first = true
			b = b[nl+1:]
		}
	}
	if s.size > 0 && last != '\n' {
		rows++
	}
	if s.size <= int64(cap(s.win)) { // the one read above took it all
		s.win = s.win[:s.size]
		s.rest, s.off, s.eof = bytesString(s.win), s.size, true
	}
	return rows, idBytes, nil
}

// readAt fills p from the document at off; a document shorter than its size
// is an error.
func (s *csvScanner) readAt(p []byte, off int64) error {
	n, err := s.r.ReadAt(p, off)
	if n == len(p) {
		return nil
	}
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("read at byte %d: %w", off+int64(n), err)
}

// fill moves the window's unscanned bytes to its front and reads the
// document after them, first doubling the window when those bytes fill it.
func (s *csvScanner) fill() error {
	win := s.win[:cap(s.win)]
	if len(s.rest) == len(win) {
		win = make([]byte, 2*len(win))
	}
	n := copy(win, s.rest)
	m := int(min(int64(len(win)-n), s.size-s.off))
	if err := s.readAt(win[n:n+m], s.off); err != nil {
		return err
	}
	s.off += int64(m)
	s.win = win[:n+m]
	s.rest, s.eof = bytesString(s.win), s.off == s.size
	return nil
}

// next scans the next row into s.row. It reports false at the end of the
// input.
func (s *csvScanner) next() (bool, error) {
	for {
		ok, err := s.scan()
		if err != errMore {
			return ok, err
		}
		if err := s.fill(); err != nil {
			return false, err
		}
	}
}

// scan scans the next row held in the window into s.row. A row that runs
// past the window is errMore, with the scanner left at the row's start.
func (s *csvScanner) scan() (bool, error) {
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
		if !s.eof {
			return false, errMore
		}
		return false, nil
	}
	start, from := s.line, s.rest
	s.row = s.row[:0]
	if line, rest, found := strings.Cut(s.rest, "\n"); !found && !s.eof {
		return false, errMore
	} else if strings.IndexByte(line, '"') < 0 {
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
			if err == errMore {
				s.line, s.rest = start, from
				return false, err
			}
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
	case j == len(rest) && !s.eof:
		return "", false, errMore
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
		if q < 0 && !s.eof {
			return "", false, errMore
		}
		if q < 0 {
			return "", false, fmt.Errorf(`quoted field has no closing "`)
		}
		seg, after := rest[p:p+q], rest[p+q+1:]
		if !s.eof && (after == "" || after == "\r") { // a `""` or a "\r\n" may follow
			return "", false, errMore
		}
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
