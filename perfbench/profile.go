package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// foldProfile reads a CPU profile as runtime/pprof writes it (a
// gzip-compressed profile.proto message) and returns the self time of
// each Go package in nanoseconds: every sample is charged to the
// package of its innermost function, the first line of its first
// location.
func foldProfile(data []byte) (map[string]int64, error) {
	if zr, err := gzip.NewReader(bytes.NewReader(data)); err == nil {
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type sample struct {
		leafLoc uint64
		values  []uint64
	}
	var (
		strs       []string
		valueUnits []int64 // string-table index of each sample type's unit
		samples    []sample
		locFunc    = map[uint64]uint64{} // location id -> innermost function id
		funcName   = map[uint64]int64{}  // function id -> string-table index
	)
	err := fields(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return fields(b, func(num int, v uint64, _ []byte) error {
				if num == 2 {
					valueUnits = append(valueUnits, int64(v))
				}
				return nil
			})
		case 2: // sample
			var locs, vals []uint64
			err := fields(b, func(num int, v uint64, b []byte) (err error) {
				switch num {
				case 1:
					locs, err = varints(locs, v, b)
				case 2:
					vals, err = varints(vals, v, b)
				}
				return err
			})
			if err == nil && len(locs) > 0 {
				samples = append(samples, sample{locs[0], vals})
			}
			return err
		case 4: // location
			var id, fn uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch {
				case num == 1:
					id = v
				case num == 4 && fn == 0:
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// The CPU time is the sample value measured in nanoseconds.
	vi := -1
	for i, u := range valueUnits {
		if u >= 0 && int(u) < len(strs) && strs[u] == "nanoseconds" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, errors.New("profile: no sample value in nanoseconds")
	}
	out := map[string]int64{}
	for _, s := range samples {
		if vi >= len(s.values) {
			return nil, errors.New("profile: sample without a time value")
		}
		name := ""
		if i := funcName[locFunc[s.leafLoc]]; i >= 0 && int(i) < len(strs) {
			name = strs[i]
		}
		out[packageOf(name)] += int64(s.values[vi])
	}
	return out, nil
}

var errMalformed = errors.New("profile: malformed protobuf")

// fields calls f for each field of a protobuf message with its number
// and either its varint value (wire type 0) or its bytes (wire type 2,
// never nil). Fixed-width fields are skipped.
func fields(b []byte, f func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errMalformed
		}
		b = b[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errMalformed
			}
			b = b[n:]
			if err := f(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errMalformed
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errMalformed
			}
			body := b[n : n+int(l) : n+int(l)]
			b = b[n+int(l):]
			if err := f(num, 0, body); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errMalformed
			}
			b = b[4:]
		default:
			return errMalformed
		}
	}
	return nil
}

// varints appends one field of a repeated varint: a single value v, or
// the packed values in b.
func varints(dst []uint64, v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errMalformed
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst, nil
}

// packageOf returns the import path of the package a Go symbol belongs
// to, e.g. "repro/internal/cache" for "repro/internal/cache.(*Cache).Probe".
func packageOf(sym string) string {
	// Type arguments may contain dots and slashes of their own.
	if i := strings.IndexByte(sym, '['); i >= 0 {
		sym = sym[:i]
	}
	dir := ""
	if i := strings.LastIndexByte(sym, '/'); i >= 0 {
		dir, sym = sym[:i+1], sym[i+1:]
	}
	if i := strings.IndexByte(sym, '.'); i >= 0 {
		sym = sym[:i]
	}
	return dir + sym
}

// layerOf names the layer a package's self time is reported under: the
// repository's internal packages by name, the Go runtime as go.runtime,
// and JSON decoding (encoding/json, reflect, strconv) as store.json.
func layerOf(pkg string) string {
	switch {
	case strings.HasPrefix(pkg, "repro/internal/"):
		name, _, _ := strings.Cut(strings.TrimPrefix(pkg, "repro/internal/"), "/")
		return name
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "go.runtime"
	case pkg == "encoding/json" || pkg == "reflect" || pkg == "strconv":
		return "store.json"
	}
	return "other"
}

// selfTimes folds package self times into layers: the nanoseconds of
// each layer and the total.
func selfTimes(byPkg map[string]int64) (byLayer map[string]int64, total int64) {
	byLayer = map[string]int64{}
	for pkg, ns := range byPkg {
		byLayer[layerOf(pkg)] += ns
		total += ns
	}
	return byLayer, total
}
