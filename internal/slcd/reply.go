package slcd

import (
	"bufio"
	"io"
	"sort"
	"strconv"
	"unicode/utf8"

	"outliner/internal/pipeline"
)

// writeReply writes resp to w as json.NewEncoder(w).Encode(resp) would: the
// fields in tag order under their omitempty rules, counters by sorted key,
// strings escaped HTML-safe, a closing newline. The listing is res's,
// streamed from WriteImageListing through a stringEscaper, so the reply text
// is never held whole; resp.Listing is not read (build leaves it empty). A
// listing is never empty — it always has its "symbols:" header — so omitempty
// never drops it. The first write error ends the reply and is returned.
func writeReply(w io.Writer, resp *BuildResponse, res *pipeline.Result) error {
	// Each flush is one HTTP chunk and one write to the connection; 4 KB
	// would cut a 600 KB reply into 150 of them.
	bw := bufio.NewWriterSize(w, 32<<10)
	bw.WriteString(`{"ok":`)
	bw.WriteString(strconv.FormatBool(resp.OK))
	if resp.Error != "" {
		bw.WriteString(`,"error":`)
		writeString(bw, resp.Error)
	}
	if resp.ErrorClass != "" {
		bw.WriteString(`,"error_class":`)
		writeString(bw, resp.ErrorClass)
	}
	if res != nil {
		bw.WriteString(`,"listing":"`)
		e := stringEscaper{w: bw}
		res.WriteImageListing(&e) // a write error stays in bw for Flush
		e.flush()
		bw.WriteByte('"')
	}
	writeInt(bw, `,"code_size":`, resp.CodeSize)
	writeInt(bw, `,"total_size":`, resp.TotalSize)
	if len(resp.Counters) > 0 {
		keys := make([]string, 0, len(resp.Counters))
		for k := range resp.Counters {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		sep := `,"counters":{`
		for _, k := range keys {
			bw.WriteString(sep)
			sep = ","
			writeString(bw, k)
			bw.WriteByte(':')
			bw.Write(strconv.AppendInt(bw.AvailableBuffer(), resp.Counters[k], 10))
		}
		bw.WriteByte('}')
	}
	bw.WriteString("}\n")
	return bw.Flush()
}

// writeInt writes an omitempty int field: its key and value, or nothing for 0.
func writeInt(bw *bufio.Writer, key string, v int) {
	if v != 0 {
		bw.WriteString(key)
		bw.Write(strconv.AppendInt(bw.AvailableBuffer(), int64(v), 10))
	}
}

// writeString writes s as a quoted JSON string.
func writeString(bw *bufio.Writer, s string) {
	bw.WriteByte('"')
	e := stringEscaper{w: bw}
	e.Write([]byte(s))
	e.flush()
	bw.WriteByte('"')
}

// stringEscaper writes what is written to it to w as the inside of a JSON
// string: byte for byte what encoding/json, escaping HTML, writes for the
// concatenation of every Write. It copies ASCII but for control characters,
// '"', '\\', '<', '>' and '&', which it escapes, and valid multi-byte runes
// but for U+2028 and U+2029, which it escapes too; a byte that starts no valid
// rune becomes \ufffd. A rune cut by the end of a Write is carried into the
// next one. flush ends the text: each byte of a rune still carried then is
// one \ufffd, as at the end of a string encoding/json escapes.
type stringEscaper struct {
	w     *bufio.Writer
	carry [utf8.UTFMax]byte
	n     int // carry[:n] begins a rune that no Write has completed yet
}

// Write never fails: a write error stays in w, for its Flush to return.
func (e *stringEscaper) Write(p []byte) (int, error) {
	written := len(p)
	// Finish the carried rune from p's first bytes. If they do not complete
	// it, its first byte is invalid: the rune decoded is that one byte, and
	// the rest of the carry starts the next rune.
	for e.n > 0 && len(p) > 0 {
		had := e.n
		e.n += copy(e.carry[had:], p)
		if !utf8.FullRune(e.carry[:e.n]) {
			return written, nil // all of p is carried, and the rune is still cut
		}
		c, size := utf8.DecodeRune(e.carry[:e.n])
		if esc := runeEscape(c, size); esc != "" {
			e.w.WriteString(esc)
		} else {
			e.w.Write(e.carry[:size])
		}
		if size >= had {
			p, e.n = p[size-had:], 0
		} else {
			e.n = copy(e.carry[:], e.carry[size:had])
		}
	}
	start := 0
	for i := 0; i < len(p); {
		for i < len(p) && copied[p[i]] {
			i++
		}
		if i == len(p) {
			break
		}
		if b := p[i]; b < utf8.RuneSelf {
			e.w.Write(p[start:i])
			e.w.WriteString(asciiEscapes[b])
			i++
			start = i
			continue
		}
		if !utf8.FullRune(p[i:]) {
			e.w.Write(p[start:i])
			e.n = copy(e.carry[:], p[i:])
			return written, nil
		}
		c, size := utf8.DecodeRune(p[i:])
		if esc := runeEscape(c, size); esc != "" {
			e.w.Write(p[start:i])
			e.w.WriteString(esc)
			start = i + size
		}
		i += size
	}
	e.w.Write(p[start:])
	return written, nil
}

// flush ends the text: each byte of a carried rune is invalid.
func (e *stringEscaper) flush() {
	for ; e.n > 0; e.n-- {
		e.w.WriteString(`\ufffd`)
	}
}

// runeEscape returns encoding/json's escape for the rune c, decoded from size
// bytes that start with a non-ASCII byte, or "" when the bytes are copied.
func runeEscape(c rune, size int) string {
	switch {
	case c == utf8.RuneError && size == 1:
		return `\ufffd`
	case c == '\u2028':
		return `\u2028`
	case c == '\u2029':
		return `\u2029`
	}
	return ""
}

// copied marks the bytes Write copies without a second look: the ASCII bytes
// asciiEscapes has no escape for. A byte from 0x80 up starts a rune.
var copied = func() (t [256]bool) {
	for b := range utf8.RuneSelf {
		t[b] = asciiEscapes[b] == ""
	}
	return t
}()

// asciiEscapes holds encoding/json's escape for each ASCII byte it does not
// copy, with HTML escaping on, and "" for each byte it copies.
var asciiEscapes = func() (t [utf8.RuneSelf]string) {
	const hex = "0123456789abcdef"
	for b := range byte(' ') {
		t[b] = `\u00` + string(hex[b>>4]) + string(hex[b&0xF])
	}
	t['\b'], t['\f'], t['\n'], t['\r'], t['\t'] = `\b`, `\f`, `\n`, `\r`, `\t`
	t['"'], t['\\'] = `\"`, `\\`
	t['<'], t['>'], t['&'] = `\u003c`, `\u003e`, `\u0026`
	return t
}()
