package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"caram/internal/bitutil"
	"caram/internal/match"
	"caram/internal/subsystem"
)

// Record framing. Each record is one frame in a segment:
//
//	[u32 payloadLen][u32 crc32c(payload)][payload]
//	payload = [u64 lsn][u8 op][u8 engineLen][engine][body]
//
// All integers little-endian; the CRC is Castagnoli (CRC32C), the
// polynomial with hardware support on every target we care about. The
// length prefix lets recovery skip to the next frame without decoding;
// the CRC makes a torn or bit-rotted tail detectable before anything
// is replayed.
//
// Bodies:
//
//	insert  key.Value(16) key.Mask(16) data(16)        48 bytes
//	delete  key.Value(16) key.Mask(16)                 32 bytes
//	create  type(1) indexBits(1) slots(2) ecc(1)        5 bytes
//	drop    —
//	seal    —

// castagnoli is the CRC32C table every record and snapshot uses.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	frameHeader = 8
	// maxRecordBytes bounds a frame's declared payload length during
	// recovery: anything larger is corruption, not a record (the
	// largest legal record is an insert with a 255-byte engine name,
	// well under 1 KiB). Snapshot files use their own whole-file CRC.
	maxRecordBytes = 4096
)

func appendVec(buf []byte, v bitutil.Vec128) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, v.Lo)
	return binary.LittleEndian.AppendUint64(buf, v.Hi)
}

func appendTernary(buf []byte, t bitutil.Ternary) []byte {
	return appendVec(appendVec(buf, t.Value), t.Mask)
}

func readVec(p []byte) bitutil.Vec128 {
	return bitutil.Vec128{
		Lo: binary.LittleEndian.Uint64(p),
		Hi: binary.LittleEndian.Uint64(p[8:]),
	}
}

func readTernary(p []byte) bitutil.Ternary {
	return bitutil.Ternary{Value: readVec(p), Mask: readVec(p[16:])}
}

// appendRecord appends one framed record to buf and returns the
// extended slice. The caller owns LSN assignment.
func appendRecord(buf []byte, lsn uint64, e subsystem.JournalEntry) []byte {
	mark := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // frame header, patched below
	buf = binary.LittleEndian.AppendUint64(buf, lsn)
	buf = append(buf, byte(e.Op), byte(len(e.Engine)))
	buf = append(buf, e.Engine...)
	switch e.Op {
	case subsystem.JournalInsert:
		buf = appendTernary(buf, e.Rec.Key)
		buf = appendVec(buf, e.Rec.Data)
	case subsystem.JournalDelete:
		buf = appendTernary(buf, e.Key)
	case subsystem.JournalCreate:
		ecc := byte(0)
		if e.Conf.ECC {
			ecc = 1
		}
		buf = append(buf, byte(e.Type), byte(e.Conf.IndexBits))
		buf = binary.LittleEndian.AppendUint16(buf, uint16(e.Conf.Slots))
		buf = append(buf, ecc)
	}
	payload := buf[mark+frameHeader:]
	binary.LittleEndian.PutUint32(buf[mark:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[mark+4:], crc32.Checksum(payload, castagnoli))
	return buf
}

// decodeRecord parses one payload whose CRC has already been verified.
// The engine name comes back as a view into p and e.Engine is left for
// the caller to fill: replay interns it against the roster, so decoding
// a record allocates nothing.
func decodeRecord(p []byte) (lsn uint64, e subsystem.JournalEntry, name []byte, err error) {
	if len(p) < 10 {
		return 0, e, nil, fmt.Errorf("wal: record payload of %d bytes", len(p))
	}
	lsn = binary.LittleEndian.Uint64(p)
	e.Op = subsystem.JournalOp(p[8])
	nameLen := int(p[9])
	if len(p) < 10+nameLen {
		return 0, e, nil, fmt.Errorf("wal: record engine name truncated")
	}
	name = p[10 : 10+nameLen]
	body := p[10+nameLen:]
	switch e.Op {
	case subsystem.JournalInsert:
		if len(body) != 48 {
			return 0, e, nil, fmt.Errorf("wal: insert body of %d bytes", len(body))
		}
		e.Rec = match.Record{Key: readTernary(body), Data: readVec(body[32:])}
	case subsystem.JournalDelete:
		if len(body) != 32 {
			return 0, e, nil, fmt.Errorf("wal: delete body of %d bytes", len(body))
		}
		e.Key = readTernary(body)
	case subsystem.JournalCreate:
		if len(body) != 5 {
			return 0, e, nil, fmt.Errorf("wal: create body of %d bytes", len(body))
		}
		e.Type = subsystem.EngineType(body[0])
		e.Conf = subsystem.TypedConfig{
			IndexBits: int(body[1]),
			Slots:     int(binary.LittleEndian.Uint16(body[2:])),
			ECC:       body[4] == 1,
		}
	case subsystem.JournalDrop, subsystem.JournalSeal:
		if len(body) != 0 {
			return 0, e, nil, fmt.Errorf("wal: %d-byte body on a bodyless record", len(body))
		}
	default:
		return 0, e, nil, fmt.Errorf("wal: unknown record op %d", e.Op)
	}
	return lsn, e, name, nil
}
