package artifact

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
)

// Container framing constants.
const (
	containerMagic   uint32 = 0x43444153 // "CDAS"
	containerVersion uint16 = 1
	trailerMagic     uint32 = 0x53414443 // "SADC"

	// maxSectionBytes bounds a single section's claimed length. The largest
	// real section is a float64 column over a paper-scale archive (~3 M
	// observations). The reader never allocates by the claim alone (see
	// sectionReader.payload and capFor).
	maxSectionBytes = 1 << 31
)

// sectionWriter streams a snapshot: header, then length-prefixed
// CRC32-guarded sections, then the trailer. All integers are little-endian.
type sectionWriter struct {
	bw   *bufio.Writer
	err  error
	tmp  [8]byte
	next uint32 // next expected section id, for fixed-order enforcement
}

func newSectionWriter(w io.Writer, kind Kind) *sectionWriter {
	sw := &sectionWriter{bw: bufio.NewWriterSize(w, 1<<16)}
	sw.putU32(containerMagic)
	sw.putU16(containerVersion)
	sw.putU16(uint16(kind))
	sw.putU32(SchemaVersion)
	return sw
}

func (sw *sectionWriter) putU16(v uint16) {
	if sw.err != nil {
		return
	}
	le.PutUint16(sw.tmp[:2], v)
	_, sw.err = sw.bw.Write(sw.tmp[:2])
}

func (sw *sectionWriter) putU32(v uint32) {
	if sw.err != nil {
		return
	}
	le.PutUint32(sw.tmp[:4], v)
	_, sw.err = sw.bw.Write(sw.tmp[:4])
}

// section writes one complete section: id, payload length, payload, CRC.
func (sw *sectionWriter) section(id uint32, payload []byte) {
	if sw.err != nil {
		return
	}
	if id != sw.next {
		sw.err = fmt.Errorf("artifact: internal error: section %d written out of order (want %d)", id, sw.next)
		return
	}
	sw.next++
	sw.putU32(id)
	if sw.err == nil {
		le.PutUint64(sw.tmp[:8], uint64(len(payload)))
		_, sw.err = sw.bw.Write(sw.tmp[:8])
	}
	if sw.err == nil {
		_, sw.err = sw.bw.Write(payload)
	}
	sw.putU32(crc32.ChecksumIEEE(payload))
}

// close writes the trailer and flushes. It returns the first error seen.
func (sw *sectionWriter) close() error {
	sw.putU32(trailerMagic)
	if sw.err != nil {
		return sw.err
	}
	return sw.bw.Flush()
}

// sectionReader decodes the framing written by sectionWriter, failing closed
// on any deviation: wrong magic, version skew, out-of-order sections, length
// overruns, CRC mismatches, or trailing garbage. Like sectionWriter it keeps
// the first error, and every read after it returns a zero value (nil for a
// payload), so a decoder reads straight through, checks err only before a
// decoded value sizes an allocation, and takes the error from close.
//
// A record section (meta, a track directory, a satellite table) is read
// whole into a payload buffer. A column section is never buffered: column
// hands its values to the decoder in runs straight from the read buffer,
// updating the CRC as they pass, so each value lands in its destination
// before the section's CRC has been checked. A decoder therefore returns
// nothing once the reader has failed, and no caller sees a destination a
// failed section has partly filled.
type sectionReader struct {
	br   *bufio.Reader
	src  lenReader // br's source, when it can say how many bytes remain
	err  error
	tmp  [8]byte
	next uint32
}

// lenReader is a source that can say how many unread bytes it holds, as a
// bytes.Reader and the cache's entry reader can.
type lenReader interface{ Len() int }

// le is the byte order of every integer and float in a snapshot.
var le = binary.LittleEndian

// readBufBytes is the read buffer's size: a column's values arrive in runs
// of at most this many bytes.
const readBufBytes = 1 << 16

// newSectionReader validates the header and checks the kind and versions.
func newSectionReader(r io.Reader, kind Kind) *sectionReader {
	sr := &sectionReader{br: bufio.NewReaderSize(r, readBufBytes)}
	sr.src, _ = r.(lenReader)
	if magic := sr.u32(); magic != containerMagic {
		sr.fail(ErrCorrupt, "not a CDAS snapshot (magic %#x)", magic)
	}
	if version := sr.u16(); version != containerVersion {
		sr.fail(ErrVersionSkew, "container version %d (have %d)", version, containerVersion)
	}
	if k := Kind(sr.u16()); k != kind {
		sr.fail(ErrCorrupt, "snapshot kind %s, want %s", k, kind)
	}
	if schema := sr.u32(); schema != SchemaVersion {
		sr.fail(ErrVersionSkew, "schema version %d (have %d)", schema, SchemaVersion)
	}
	return sr
}

// fail records the first error, of class ErrCorrupt or ErrVersionSkew.
func (sr *sectionReader) fail(class error, format string, args ...any) {
	if sr.err == nil {
		sr.err = fmt.Errorf("%w: %s", class, fmt.Sprintf(format, args...))
	}
}

// read returns the stream's next n bytes, n <= 8, or n zero bytes once the
// reader has failed.
func (sr *sectionReader) read(n int) []byte {
	b := sr.tmp[:n]
	if sr.err == nil {
		if _, err := io.ReadFull(sr.br, b); err != nil {
			sr.fail(ErrCorrupt, "snapshot truncated: %v", err)
		}
	}
	if sr.err != nil {
		clear(b)
	}
	return b
}

func (sr *sectionReader) u16() uint16 { return le.Uint16(sr.read(2)) }
func (sr *sectionReader) u32() uint32 { return le.Uint32(sr.read(4)) }
func (sr *sectionReader) u64() uint64 { return le.Uint64(sr.read(8)) }

// header reads the id and length that open the next section, which must
// carry the expected id, and returns the length.
func (sr *sectionReader) header(id uint32) uint64 {
	if got := sr.u32(); got != id || got != sr.next {
		sr.fail(ErrCorrupt, "section id %d, want %d", got, id)
	}
	sr.next++
	n := sr.u64()
	if n > maxSectionBytes {
		sr.fail(ErrCorrupt, "section %d claims %d bytes", id, n)
	}
	return n
}

// section reads the next section, which must carry the expected id, and
// returns its CRC-verified payload.
func (sr *sectionReader) section(id uint32) []byte {
	n := sr.header(id)
	if sr.err != nil {
		return nil
	}
	payload, err := sr.payload(n)
	if err != nil {
		sr.fail(ErrCorrupt, "section %d truncated: %v", id, err)
	}
	if sum := sr.u32(); sum != crc32.ChecksumIEEE(payload) {
		sr.fail(ErrCorrupt, "section %d checksum mismatch", id)
	}
	if sr.err != nil {
		return nil
	}
	return payload
}

// record reads section id as a fixed-order record.
func (sr *sectionReader) record(id uint32) recordParser {
	return recordParser{sr: sr, buf: sr.section(id)}
}

// payloadStep is the first allocation for a section payload read from a
// source that cannot say how many bytes it holds.
const payloadStep = 1 << 20

// payload reads an n-byte section payload without trusting n. From a source
// that knows how many bytes remain, a longer claim fails before anything is
// allocated, and the buffer is allocated once. From any other source the
// buffer grows as the bytes arrive — payloadStep, then doubling — so a false
// claim costs about twice the bytes the stream holds, not the claim.
func (sr *sectionReader) payload(n uint64) ([]byte, error) {
	size := min(n, payloadStep)
	if sr.src != nil {
		if n > sr.remaining() {
			return nil, io.ErrUnexpectedEOF
		}
		size = n
	}
	buf := make([]byte, size)
	have := 0
	for {
		if _, err := io.ReadFull(sr.br, buf[have:]); err != nil {
			return nil, err
		}
		if uint64(len(buf)) == n {
			return buf, nil
		}
		have = len(buf)
		grown := make([]byte, min(n, 2*uint64(have)))
		copy(grown, buf)
		buf = grown
	}
}

// remaining is the number of unread bytes of a sized source, those in the
// read buffer included.
func (sr *sectionReader) remaining() uint64 {
	return uint64(sr.src.Len() + sr.br.Buffered())
}

// capFor is the capacity a destination of count values may take before
// they arrive: count from a source known to hold the need bytes they and
// the columns read with them take, and 0 from a source that cannot say, so
// that the destination grows as values arrive. A sized source that holds
// fewer bytes is truncated, and the reader fails.
func (sr *sectionReader) capFor(count int, need uint64) int {
	if sr.err != nil || sr.src == nil {
		return 0
	}
	if have := sr.remaining(); need > have {
		sr.fail(ErrCorrupt, "snapshot truncated: %d values need %d bytes, %d remain", count, need, have)
		return 0
	}
	return count
}

// anyLen is the count that lets a column take every value its section
// holds.
const anyLen = -1

// columnLen reads the header of section id as a column of width-byte values
// and returns how many it holds: exactly count, or any whole number of them
// for anyLen.
func (sr *sectionReader) columnLen(id uint32, width, count int) int {
	n := sr.header(id)
	if count == anyLen {
		count = int(n) / width
	}
	if sr.err == nil && n != uint64(width*count) {
		sr.fail(ErrCorrupt, "section %d has %d bytes, want %d values of %d bytes", id, n, count, width)
	}
	if sr.err != nil {
		return 0
	}
	return count
}

// columnValues streams the n width-byte values of the column section id
// whose header columnLen read. put(i, vals) receives values i, i+1, … back
// to back, len(vals)/width of them, straight from the read buffer; vals is
// valid only during the call. The CRC covers every run and is checked after
// the last one. put is never called once the reader has failed, so it sees
// only values at indices below n.
func (sr *sectionReader) columnValues(id uint32, width, n int, put func(i int, vals []byte)) {
	crc := uint32(0)
	for i, left := 0, width*n; left > 0 && sr.err == nil; {
		run, err := sr.br.Peek(min(left, readBufBytes))
		run = run[:len(run)-len(run)%width]
		if len(run) == 0 {
			sr.fail(ErrCorrupt, "section %d truncated: %v", id, err)
			break
		}
		crc = crc32.Update(crc, crc32.IEEETable, run)
		put(i, run)
		i += len(run) / width
		left -= len(run)
		_, _ = sr.br.Discard(len(run))
	}
	if sum := sr.u32(); sum != crc {
		sr.fail(ErrCorrupt, "section %d checksum mismatch", id)
	}
}

// column reads section id as a column of count width-byte values (any
// whole number of them for anyLen) and streams them to put as columnValues
// does. It suits a destination that already holds a slot per value.
func (sr *sectionReader) column(id uint32, width, count int, put func(i int, vals []byte)) {
	sr.columnValues(id, width, sr.columnLen(id, width, count), put)
}

// f64s reads section id as a column of count float64 values (anyLen: every
// value it holds) straight into a new slice, allocated once from a source
// known to hold them and grown as they arrive from any other.
func (sr *sectionReader) f64s(id uint32, count int) []float64 {
	n := sr.columnLen(id, 8, count)
	out := make([]float64, 0, sr.capFor(n, 8*uint64(n)))
	sr.columnValues(id, 8, n, func(_ int, vals []byte) {
		i := len(out)
		out = slices.Grow(out, len(vals)/8)[:i+len(vals)/8]
		for k := range out[i:] {
			out[i+k] = math.Float64frombits(le.Uint64(vals[8*k:]))
		}
	})
	return out
}

// i64s is f64s for a column of int64 values.
func i64s[T int | int64](sr *sectionReader, id uint32, count int) []T {
	n := sr.columnLen(id, 8, count)
	out := make([]T, 0, sr.capFor(n, 8*uint64(n)))
	sr.columnValues(id, 8, n, func(_ int, vals []byte) {
		i := len(out)
		out = slices.Grow(out, len(vals)/8)[:i+len(vals)/8]
		for k := range out[i:] {
			out[i+k] = T(le.Uint64(vals[8*k:]))
		}
	})
	return out
}

// close consumes the trailer, requires clean EOF after it, and returns the
// first error the reader met.
func (sr *sectionReader) close() error {
	if magic := sr.u32(); magic != trailerMagic {
		sr.fail(ErrCorrupt, "bad trailer magic %#x", magic)
	}
	if sr.err == nil {
		if _, err := sr.br.ReadByte(); err != io.EOF {
			sr.fail(ErrCorrupt, "trailing garbage after snapshot")
		}
	}
	return sr.err
}

// --- columns ---
//
// A column section is count fixed-width values back to back. Encoders fill
// the payload straight from their records and decoders fill their records
// straight from the read buffer; floats travel as IEEE-754 bit patterns, so
// the round trip is exact for every value, NaN payloads included.

func getF32(col []byte, i int) float32    { return math.Float32frombits(le.Uint32(col[4*i:])) }
func putF32(col []byte, i int, v float32) { le.PutUint32(col[4*i:], math.Float32bits(v)) }
func putF64(col []byte, i int, v float64) { le.PutUint64(col[8*i:], math.Float64bits(v)) }

// f64Column encodes a whole float64 slice as a column.
func f64Column(vals []float64) []byte {
	col := make([]byte, 8*len(vals))
	for i, v := range vals {
		putF64(col, i, v)
	}
	return col
}

// i64Column encodes a whole integer slice as an int64 column.
func i64Column[T int | int64](vals []T) []byte {
	col := make([]byte, 8*len(vals))
	for i, v := range vals {
		le.PutUint64(col[8*i:], uint64(v))
	}
	return col
}

// recordBuf accumulates a small heterogeneous section (run metadata, config
// blocks, string tables) field by field in a fixed order.
type recordBuf struct {
	buf []byte
	tmp [8]byte
}

func (b *recordBuf) u32(v uint32) {
	le.PutUint32(b.tmp[:4], v)
	b.buf = append(b.buf, b.tmp[:4]...)
}

func (b *recordBuf) i64(v int64) {
	le.PutUint64(b.tmp[:8], uint64(v))
	b.buf = append(b.buf, b.tmp[:8]...)
}

func (b *recordBuf) f64(v float64) {
	le.PutUint64(b.tmp[:8], math.Float64bits(v))
	b.buf = append(b.buf, b.tmp[:8]...)
}

func (b *recordBuf) str(s string) {
	b.u32(uint32(len(s)))
	b.buf = append(b.buf, s...)
}

// recordParser is the matching fixed-order reader. It fails through its
// sectionReader: reading past the record's end records the error, and from
// the first error on every read returns a zero value.
type recordParser struct {
	sr  *sectionReader
	buf []byte // the unread rest of the record
}

// zeros backs the values a failed record read returns.
var zeros [8]byte

// take consumes the record's next n bytes, n <= 8.
func (p *recordParser) take(n int) []byte {
	if p.sr.err != nil || n > len(p.buf) {
		p.sr.fail(ErrCorrupt, "record truncated")
		p.buf = nil
		return zeros[:n]
	}
	b := p.buf[:n]
	p.buf = p.buf[n:]
	return b
}

func (p *recordParser) u32() uint32  { return le.Uint32(p.take(4)) }
func (p *recordParser) i64() int64   { return int64(le.Uint64(p.take(8))) }
func (p *recordParser) f64() float64 { return math.Float64frombits(le.Uint64(p.take(8))) }

func (p *recordParser) str() string {
	n := int(p.u32())
	if n > len(p.buf) {
		p.sr.fail(ErrCorrupt, "string of %d bytes overruns record", n)
		p.buf = nil
		return ""
	}
	s := string(p.buf[:n])
	p.buf = p.buf[n:]
	return s
}

// done requires the record to be fully consumed.
func (p *recordParser) done() {
	if len(p.buf) != 0 {
		p.sr.fail(ErrCorrupt, "%d unconsumed record bytes", len(p.buf))
	}
}
