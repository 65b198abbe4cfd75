package artifact

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Container framing constants.
const (
	containerMagic   uint32 = 0x43444153 // "CDAS"
	containerVersion uint16 = 1
	trailerMagic     uint32 = 0x53414443 // "SADC"

	// maxSectionBytes bounds a single section's claimed length. The largest
	// real section is a float64 column over a paper-scale archive (~3 M
	// observations). The reader never allocates by the claim alone (see
	// sectionReader.payload).
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
	binary.LittleEndian.PutUint16(sw.tmp[:2], v)
	_, sw.err = sw.bw.Write(sw.tmp[:2])
}

func (sw *sectionWriter) putU32(v uint32) {
	if sw.err != nil {
		return
	}
	binary.LittleEndian.PutUint32(sw.tmp[:4], v)
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
		binary.LittleEndian.PutUint64(sw.tmp[:8], uint64(len(payload)))
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
// overruns, CRC mismatches, or trailing garbage.
type sectionReader struct {
	br   *bufio.Reader
	src  lenReader // br's source, when it can say how many bytes remain
	tmp  [8]byte
	next uint32
}

// lenReader is a source that can say how many unread bytes it holds, as a
// bytes.Reader and the cache's entry reader can.
type lenReader interface{ Len() int }

// newSectionReader validates the header and checks the kind and versions.
func newSectionReader(r io.Reader, kind Kind) (*sectionReader, error) {
	sr := &sectionReader{br: bufio.NewReaderSize(r, 1<<16)}
	sr.src, _ = r.(lenReader)
	magic, err := sr.u32()
	if err != nil {
		return nil, fmt.Errorf("%w: reading header: %v", ErrCorrupt, err)
	}
	if magic != containerMagic {
		return nil, fmt.Errorf("%w: not a CDAS snapshot (magic %#x)", ErrCorrupt, magic)
	}
	version, err := sr.u16()
	if err != nil {
		return nil, fmt.Errorf("%w: reading container version: %v", ErrCorrupt, err)
	}
	if version != containerVersion {
		return nil, fmt.Errorf("%w: container version %d (have %d)", ErrVersionSkew, version, containerVersion)
	}
	k, err := sr.u16()
	if err != nil {
		return nil, fmt.Errorf("%w: reading kind: %v", ErrCorrupt, err)
	}
	if Kind(k) != kind {
		return nil, fmt.Errorf("%w: snapshot kind %s, want %s", ErrCorrupt, Kind(k), kind)
	}
	schema, err := sr.u32()
	if err != nil {
		return nil, fmt.Errorf("%w: reading schema version: %v", ErrCorrupt, err)
	}
	if schema != SchemaVersion {
		return nil, fmt.Errorf("%w: schema version %d (have %d)", ErrVersionSkew, schema, SchemaVersion)
	}
	return sr, nil
}

func (sr *sectionReader) u16() (uint16, error) {
	if _, err := io.ReadFull(sr.br, sr.tmp[:2]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(sr.tmp[:2]), nil
}

func (sr *sectionReader) u32() (uint32, error) {
	if _, err := io.ReadFull(sr.br, sr.tmp[:4]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(sr.tmp[:4]), nil
}

func (sr *sectionReader) u64() (uint64, error) {
	if _, err := io.ReadFull(sr.br, sr.tmp[:8]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(sr.tmp[:8]), nil
}

// section reads the next section, which must carry the expected id, and
// returns its CRC-verified payload.
func (sr *sectionReader) section(id uint32) ([]byte, error) {
	got, err := sr.u32()
	if err != nil {
		return nil, fmt.Errorf("%w: reading section id: %v", ErrCorrupt, err)
	}
	if got != id || got != sr.next {
		return nil, fmt.Errorf("%w: section id %d, want %d", ErrCorrupt, got, id)
	}
	sr.next++
	n, err := sr.u64()
	if err != nil {
		return nil, fmt.Errorf("%w: reading section %d length: %v", ErrCorrupt, id, err)
	}
	if n > maxSectionBytes {
		return nil, fmt.Errorf("%w: section %d claims %d bytes", ErrCorrupt, id, n)
	}
	payload, err := sr.payload(n)
	if err != nil {
		return nil, fmt.Errorf("%w: section %d truncated: %v", ErrCorrupt, id, err)
	}
	sum, err := sr.u32()
	if err != nil {
		return nil, fmt.Errorf("%w: reading section %d checksum: %v", ErrCorrupt, id, err)
	}
	if sum != crc32.ChecksumIEEE(payload) {
		return nil, fmt.Errorf("%w: section %d checksum mismatch", ErrCorrupt, id)
	}
	return payload, nil
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
		if n > uint64(sr.src.Len()+sr.br.Buffered()) {
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

// closeTrailer consumes the trailer and requires clean EOF after it.
func (sr *sectionReader) closeTrailer() error {
	magic, err := sr.u32()
	if err != nil {
		return fmt.Errorf("%w: reading trailer: %v", ErrCorrupt, err)
	}
	if magic != trailerMagic {
		return fmt.Errorf("%w: bad trailer magic %#x", ErrCorrupt, magic)
	}
	if _, err := sr.br.ReadByte(); err != io.EOF {
		return fmt.Errorf("%w: trailing garbage after snapshot", ErrCorrupt)
	}
	return nil
}

// --- column packing helpers ---
//
// Each helper packs one typed column into (or out of) a payload buffer. The
// encoders write into a preallocated byte slice with direct PutUintNN calls:
// no reflection, no per-element interface boxing, one allocation per column.

func packI64(vals []int64) []byte {
	buf := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[8*i:], uint64(v))
	}
	return buf
}

func unpackI64(payload []byte) ([]int64, error) {
	if len(payload)%8 != 0 {
		return nil, fmt.Errorf("%w: int64 column of %d bytes", ErrCorrupt, len(payload))
	}
	out := make([]int64, len(payload)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(payload[8*i:]))
	}
	return out, nil
}

func packI32(vals []int32) []byte {
	buf := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(v))
	}
	return buf
}

func unpackI32(payload []byte) ([]int32, error) {
	if len(payload)%4 != 0 {
		return nil, fmt.Errorf("%w: int32 column of %d bytes", ErrCorrupt, len(payload))
	}
	out := make([]int32, len(payload)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(payload[4*i:]))
	}
	return out, nil
}

// packF32 stores float32 bit patterns, so the round trip is exact for every
// value including NaN payloads.
func packF32(vals []float32) []byte {
	buf := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	return buf
}

func unpackF32(payload []byte) ([]float32, error) {
	if len(payload)%4 != 0 {
		return nil, fmt.Errorf("%w: float32 column of %d bytes", ErrCorrupt, len(payload))
	}
	out := make([]float32, len(payload)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(payload[4*i:]))
	}
	return out, nil
}

// packF64 stores float64 bit patterns — bit-exact, never a text round trip.
func packF64(vals []float64) []byte {
	buf := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	return buf
}

func unpackF64(payload []byte) ([]float64, error) {
	if len(payload)%8 != 0 {
		return nil, fmt.Errorf("%w: float64 column of %d bytes", ErrCorrupt, len(payload))
	}
	out := make([]float64, len(payload)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i:]))
	}
	return out, nil
}

// recordBuf accumulates a small heterogeneous section (run metadata, config
// blocks, string tables) field by field in a fixed order.
type recordBuf struct {
	buf []byte
	tmp [8]byte
}

func (b *recordBuf) u32(v uint32) {
	binary.LittleEndian.PutUint32(b.tmp[:4], v)
	b.buf = append(b.buf, b.tmp[:4]...)
}

func (b *recordBuf) i64(v int64) {
	binary.LittleEndian.PutUint64(b.tmp[:8], uint64(v))
	b.buf = append(b.buf, b.tmp[:8]...)
}

func (b *recordBuf) f64(v float64) {
	binary.LittleEndian.PutUint64(b.tmp[:8], math.Float64bits(v))
	b.buf = append(b.buf, b.tmp[:8]...)
}

func (b *recordBuf) str(s string) {
	b.u32(uint32(len(s)))
	b.buf = append(b.buf, s...)
}

// recordParser is the matching fixed-order reader.
type recordParser struct {
	buf []byte
	off int
}

func (p *recordParser) u32() (uint32, error) {
	if p.off+4 > len(p.buf) {
		return 0, fmt.Errorf("%w: record truncated", ErrCorrupt)
	}
	v := binary.LittleEndian.Uint32(p.buf[p.off:])
	p.off += 4
	return v, nil
}

func (p *recordParser) i64() (int64, error) {
	if p.off+8 > len(p.buf) {
		return 0, fmt.Errorf("%w: record truncated", ErrCorrupt)
	}
	v := int64(binary.LittleEndian.Uint64(p.buf[p.off:]))
	p.off += 8
	return v, nil
}

func (p *recordParser) f64() (float64, error) {
	if p.off+8 > len(p.buf) {
		return 0, fmt.Errorf("%w: record truncated", ErrCorrupt)
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(p.buf[p.off:]))
	p.off += 8
	return v, nil
}

func (p *recordParser) str() (string, error) {
	n, err := p.u32()
	if err != nil {
		return "", err
	}
	if int(n) > len(p.buf)-p.off {
		return "", fmt.Errorf("%w: string of %d bytes overruns record", ErrCorrupt, n)
	}
	s := string(p.buf[p.off : p.off+int(n)])
	p.off += int(n)
	return s, nil
}

// done requires the record to be fully consumed.
func (p *recordParser) done() error {
	if p.off != len(p.buf) {
		return fmt.Errorf("%w: %d unconsumed record bytes", ErrCorrupt, len(p.buf)-p.off)
	}
	return nil
}
