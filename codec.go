package thermflow

import (
	"encoding/binary"
	"fmt"
	"strings"

	"thermflow/internal/binenc"
	"thermflow/internal/cachestore"
	"thermflow/internal/ir"
	"thermflow/internal/regalloc"
	"thermflow/internal/tdfa"
)

// This file is the durable form of a full compilation result, for
// callers that persist or ship compilations themselves (thermflowd
// does not: its result store holds only the rendered wire answer). A
// Compiled is rebuilt from first principles — options through their
// JSON codec, functions through the textual IR (print → parse
// round-trips blocks and instruction IDs, which the thermal states are
// indexed by), the register assignment by value name (value IDs do not
// survive a reparse; names do), and the full tdfa.Result through its
// binary codec.
//
// Not everything can be durable: Setup/Expect hooks are function
// values. A Program carrying hooks is only encodable when it also
// carries a stable Key (kernels do — see Kernel); on decode a kernel
// Key resolves back through the workload registry, restoring the
// hooks, while any other Key yields the IR and the Key with nil
// hooks. A hooked Program without a Key is identified by its pointer,
// which means nothing to another process, so EncodeCompiled declines
// it and the result stays memory-only.

// compiledCodecVersion versions the EncodeCompiled layout. Bump it on
// any change: bytes in an older layout then fail to decode instead of
// decoding wrong.
const compiledCodecVersion = 1

// EncodeCompiled renders c durable. It returns cachestore.ErrUnencodable
// (wrapped) for results that carry process-local identity and must stay
// memory-only.
func EncodeCompiled(c *Compiled) ([]byte, error) {
	if c == nil || c.Alloc == nil || c.Alloc.Fn == nil || c.Program == nil || c.Program.Fn == nil {
		return nil, fmt.Errorf("thermflow: encode: incomplete compilation: %w", cachestore.ErrUnencodable)
	}
	if (c.Program.Setup != nil || c.Program.Expect != nil) && c.Program.Key == "" {
		return nil, fmt.Errorf("thermflow: encode: program with hooks but no stable key: %w", cachestore.ErrUnencodable)
	}
	// The textual IR lists blocks in order and the parser makes the
	// first label the entry; a function whose entry is not its first
	// block would come back subtly different.
	for _, fn := range []*ir.Function{c.Alloc.Fn, c.Program.Fn} {
		if len(fn.Blocks) == 0 || fn.Entry != fn.Blocks[0] {
			return nil, fmt.Errorf("thermflow: encode: entry block is not first: %w", cachestore.ErrUnencodable)
		}
	}

	optsJSON, err := c.Opts.MarshalJSON()
	if err != nil {
		return nil, fmt.Errorf("thermflow: encode: options: %w", err)
	}

	b := binary.LittleEndian.AppendUint16(nil, compiledCodecVersion)
	b = binenc.AppendBytes(b, optsJSON)

	sameFn := c.Program.Fn == c.Alloc.Fn
	var flags byte
	if sameFn {
		flags |= 1
	}
	if c.Thermal != nil {
		flags |= 2
	}
	b = append(b, flags)
	b = binenc.AppendString(b, c.Program.Key)
	b = binenc.AppendString(b, c.Alloc.Fn.String())
	if !sameFn {
		b = binenc.AppendString(b, c.Program.Fn.String())
	}

	// Register assignment, by value name (only assigned values; the
	// rest decode to -1).
	assigned := 0
	for _, reg := range c.Alloc.RegOf {
		if reg >= 0 {
			assigned++
		}
	}
	b = binary.AppendUvarint(b, uint64(assigned))
	for _, v := range c.Alloc.Fn.Values() {
		if reg := c.Alloc.RegOf[v.ID]; reg >= 0 {
			b = binenc.AppendString(b, v.Name)
			b = binary.AppendVarint(b, int64(reg))
		}
	}
	b = binary.AppendUvarint(b, uint64(len(c.Alloc.Spilled)))
	for _, name := range c.Alloc.Spilled {
		b = binenc.AppendString(b, name)
	}
	b = binary.AppendUvarint(b, uint64(c.Alloc.SpillLoads))
	b = binary.AppendUvarint(b, uint64(c.Alloc.SpillStores))
	b = binary.AppendUvarint(b, uint64(c.Alloc.Rounds))

	if c.Thermal != nil {
		if b, err = tdfa.EncodeResult(b, c.Thermal); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// DecodeCompiled reverses EncodeCompiled. Every structural mismatch is
// an error (the cache layer treats it as a corrupt entry), never a
// panic.
//
// The decoded Program is reconstructed from the persisted IR text and
// Key. When the Key names a built-in kernel whose current definition
// matches the persisted text, the canonical kernel Program is used —
// hooks (Setup/Expect) and all — so a disk-served kernel result
// validates and simulates exactly like a freshly compiled one. For
// any other keyed program the hooks cannot be reconstructed and are
// nil.
func DecodeCompiled(data []byte) (*Compiled, error) {
	r := binenc.NewReader(data)
	if v := r.U16(); v != compiledCodecVersion {
		return nil, fmt.Errorf("thermflow: decode: codec version %d, want %d", v, compiledCodecVersion)
	}
	optsJSON := r.Bytes()
	flags := r.Byte()
	progKey := r.Str()
	allocText := r.Str()
	sameFn := flags&1 != 0
	progText := ""
	if !sameFn {
		progText = r.Str()
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("thermflow: decode: %w", err)
	}

	var opts Options
	if err := opts.UnmarshalJSON(optsJSON); err != nil {
		return nil, fmt.Errorf("thermflow: decode: options: %w", err)
	}
	fp, err := opts.floorplan()
	if err != nil {
		return nil, fmt.Errorf("thermflow: decode: floorplan: %w", err)
	}

	allocFn, err := ir.Parse(allocText)
	if err != nil {
		return nil, fmt.Errorf("thermflow: decode: allocated function: %w", err)
	}
	progFn := allocFn
	if !sameFn {
		if progFn, err = ir.Parse(progText); err != nil {
			return nil, fmt.Errorf("thermflow: decode: source function: %w", err)
		}
	}

	alloc := &regalloc.Allocation{
		Fn:     allocFn,
		RegOf:  make([]int, allocFn.NumValues()),
		Policy: opts.Policy,
		FP:     fp,
	}
	for i := range alloc.RegOf {
		alloc.RegOf[i] = -1
	}
	nassigned := r.Count()
	for i := 0; i < nassigned && r.Err() == nil; i++ {
		name := r.Str()
		reg := int(r.Varint())
		if r.Err() != nil {
			break
		}
		v := allocFn.ValueNamed(name)
		if v == nil {
			return nil, fmt.Errorf("thermflow: decode: assignment names unknown value %q", name)
		}
		if reg < 0 || reg >= fp.NumRegs {
			return nil, fmt.Errorf("thermflow: decode: value %q assigned out-of-range register %d", name, reg)
		}
		alloc.RegOf[v.ID] = reg
	}
	nspilled := r.Count()
	for i := 0; i < nspilled && r.Err() == nil; i++ {
		alloc.Spilled = append(alloc.Spilled, r.Str())
	}
	alloc.SpillLoads = int(r.Uvarint())
	alloc.SpillStores = int(r.Uvarint())
	alloc.Rounds = int(r.Uvarint())
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("thermflow: decode: %w", err)
	}

	c := &Compiled{
		Program: decodedProgram(progKey, progFn),
		Alloc:   alloc,
		Opts:    opts,
		fp:      fp,
		tech:    opts.tech(),
	}
	if flags&2 != 0 {
		res, err := tdfa.DecodeResult(r.Rest(), allocFn)
		if err != nil {
			return nil, err
		}
		c.Thermal = res
	} else if r.Len() != 0 {
		return nil, fmt.Errorf("thermflow: decode: %d trailing bytes", r.Len())
	}
	return c, nil
}

// kernelKeyPrefix marks Program.Key values minted by Kernel.
const kernelKeyPrefix = "kernel:"

// decodedProgram rebuilds the result's Program. A kernel key resolves
// back through the workload registry so the decoded Program regains
// its Setup/Expect hooks — but only when the registry's current IR
// matches the persisted text (a changed kernel definition means the
// hooks may no longer describe this program; then the parsed text
// stands alone, hook-less).
func decodedProgram(key string, fn *ir.Function) *Program {
	if name, ok := strings.CutPrefix(key, kernelKeyPrefix); ok {
		if k, err := Kernel(name); err == nil && k.Fn.String() == fn.String() {
			return k
		}
	}
	return &Program{Fn: fn, Key: key}
}
