package pipeline

import (
	"outliner/internal/artifact"
	"outliner/internal/llir"
	"outliner/internal/obs"
)

// lowered is one module as the back half of a build sees it after the
// frontend→LLIR stage: the stored artifact bytes, the summary the other
// modules' work needs, and the body — which, after a cache hit in the default
// pipeline, stays undecoded until this module's own machine stage misses.
type lowered struct {
	name string
	// objc asks for the Objective-C flavour on the body when it is
	// materialised. The stored bytes and the summary are always pre-flavour
	// (the flavour renames only runtime calls, which no summary consumer
	// looks at), so the flavour stays out of the llir cache key and joins the
	// machine key as one bit.
	objc bool
	// enc is the pre-flavour artifact.EncodeModule form: the cache entry on a
	// hit, the bytes just published on a miss, nil when no cache is
	// configured.
	enc []byte
	// sum and body are filled lazily (summary, materialise); at least one of
	// enc and body is always set.
	sum  *artifact.Summary
	body *llir.Module
	// recompile lowers the module from source again: materialise's last
	// resort when enc's summary decoded but its body does not.
	recompile func() (*llir.Module, error)
}

// summary returns the module's summary: the stored header a cache hit
// decoded, or else computed from the body.
func (u *lowered) summary() *artifact.Summary {
	if u.sum == nil {
		u.sum = artifact.Summarize(u.body)
	}
	return u.sum
}

// stored returns the pre-flavour encoding the machine-stage key hashes.
func (u *lowered) stored() []byte {
	if u.enc == nil {
		u.enc = artifact.EncodeModule(u.body)
	}
	return u.enc
}

// materialise returns the module's body for a stage that is going to consume
// it (it is the caller's to mutate), decoding it if lowering was a cache hit
// and applying the ObjC flavour. It must be called at most once.
func (u *lowered) materialise(tr *obs.Tracer) (*llir.Module, error) {
	m := u.body
	if m == nil {
		tr.Add("cache/llir/bodies_decoded", 1)
		var err error
		if m, err = artifact.DecodeModule(u.enc); err != nil {
			// The header was sound and the body is not. Nothing downstream
			// has consumed the body yet, so recompiling it is still a miss,
			// not an error.
			tr.Add("cache/corrupt", 1)
			if m, err = u.recompile(); err != nil {
				return nil, err
			}
		}
	}
	u.body = nil
	if u.objc {
		applyObjCFlavour(m)
	}
	return m, nil
}

// applyObjCFlavour rewrites a module as if clang had produced it: its
// reference-counting calls become objc_retain/objc_release and its GC module
// flag carries the clang identity — the §VI-2 mixed-compiler situation.
func applyObjCFlavour(m *llir.Module) {
	m.Metadata["Objective-C Garbage Collection"] = "clang abi-v11.0 bits-0x17"
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Insts {
				in := &b.Insts[i]
				if in.Op != llir.Call {
					continue
				}
				switch in.Sym {
				case llir.RTRetain:
					in.Sym = llir.RTObjCRetain
				case llir.RTRelease:
					in.Sym = llir.RTObjCRelease
				}
			}
		}
	}
}
