package lint

// IndexDiscipline restricts how the batch engine's dense parallel arrays
// may be indexed. The batch layout splits addressing into two spaces: *slot
// ids* (stable VC/injection-slot numbers, shared with the scalar engine)
// index the aIdx translation table and the occ bitmap, while *positions*
// (compact, swap-remove-maintained offsets) index the hot-state and message
// arrays. Mixing the spaces compiles fine and often even runs fine at small
// scale — until a swap-remove reorders positions and a slot id silently
// reads another worm's state. The pass therefore requires every index into
// a checked array to be derived from a blessed producer:
//
//   - positions: aIdx[slot], range/loop offsets over the active list or a
//     position array, len(active)-style bounds arithmetic, a uniform draw
//     below such a bound (rt.Intn(len(active))), blessed producers
//     (nextUnrouted, a set bit of the unrouted-position bitmap), or a
//     parameter named in PosParams;
//   - slot ids: elements of the active/free/mover slices, configured
//     slot-carrying struct fields, blessed producers (newInjSlotR), the
//     ch*numVCs+vc packing arithmetic, or a parameter named in SlotParams.
//
// Call sites are held to the same contract: an argument for a parameter
// named in SlotParams/PosParams must itself be blessed. Intentional escapes
// carry //lint:allow indexdiscipline with a reason.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Blessing flags.
const (
	blessSlot = 1 << iota
	blessPos
)

// IndexDiscipline is the pass. Construct with NewIndexDiscipline, or
// populate the fields for fixture models.
type IndexDiscipline struct {
	TargetPkg string
	Root      string // FindFunc spec; the audit covers its reachable graph
	// PosArrays are indexed by positions; SlotArrays by slot ids.
	PosArrays  map[string]bool
	SlotArrays map[string]bool
	// SlotSlices hold slot ids as elements (and, when also in PosArrays,
	// are position-indexed: the active list is both).
	SlotSlices map[string]bool
	// SlotParams/PosParams bless parameters by name, and bind call-site
	// arguments to the same discipline.
	SlotParams map[string]bool
	PosParams  map[string]bool
	// SlotFields are "Struct.field" selectors carrying slot ids.
	SlotFields map[string]bool
	// SlotProducers are target-package functions returning fresh slot ids.
	SlotProducers map[string]bool
	// PosProducers are target-package functions returning positions (a set
	// bit of a position bitmap).
	PosProducers map[string]bool
	// PosDraws are methods drawing uniformly from [0, arg): given a
	// position bound they return a position (the rotated scan start).
	PosDraws map[string]bool
	// SlotFactor names the field whose multiply-add packing produces slot
	// ids (ch*numVCs + vc).
	SlotFactor string
}

// NewIndexDiscipline returns the pass configured for wormsim's batch
// engine.
func NewIndexDiscipline() *IndexDiscipline {
	return &IndexDiscipline{
		TargetPkg:  "wormsim/internal/network",
		Root:       "(*BatchNetwork).Step",
		PosArrays:  map[string]bool{"hotA": true, "msgA": true, "active": true, "blk": true},
		SlotArrays: map[string]bool{"aIdx": true, "occ": true},
		SlotSlices: map[string]bool{
			"active": true, "injFree": true, "moves": true, "reqBuf": true,
		},
		SlotParams:    map[string]bool{"id": true, "t": true},
		PosParams:     map[string]bool{"pos": true},
		SlotFields:    map[string]bool{"wormRef.vc": true},
		SlotProducers: map[string]bool{"newInjSlotR": true},
		PosProducers:  map[string]bool{"nextUnrouted": true},
		PosDraws:      map[string]bool{"Intn": true},
		SlotFactor:    "numVCs",
	}
}

// Name returns "indexdiscipline".
func (*IndexDiscipline) Name() string { return "indexdiscipline" }

// Doc describes the pass.
func (*IndexDiscipline) Doc() string {
	return "batch dense arrays may only be indexed by blessed slot-id/position producers"
}

// RunProgram audits every function reachable from the root.
func (d *IndexDiscipline) RunProgram(prog *Program) []Finding {
	pkg := prog.Package(d.TargetPkg)
	if pkg == nil {
		return nil
	}
	root := prog.FindFunc(d.TargetPkg, d.Root)
	if root == nil {
		return []Finding{{
			Pos:  pkg.Fset.Position(pkg.Files[0].Pos()),
			Pass: d.Name(),
			Msg:  fmt.Sprintf("index-discipline root %s not found in %s; update the pass configuration", d.Root, d.TargetPkg),
		}}
	}
	reach := prog.Graph().ReachableFrom(root)
	var findings []Finding
	forEachReachableDecl(prog, reach, func(q *Package, fd *ast.FuncDecl, fn *types.Func) {
		if q.Path != d.TargetPkg {
			return
		}
		findings = append(findings, d.checkFunc(q, fd, prog)...)
	})
	return findings
}

// idxScope is the per-function blessing state.
type idxScope struct {
	pass    *IndexDiscipline
	pkg     *Package
	aliases map[types.Object][]string
	bless   map[types.Object]int
}

// checkFunc blesses fd's identifiers, then audits every index expression
// and intra-package call-site argument.
func (d *IndexDiscipline) checkFunc(pkg *Package, fd *ast.FuncDecl, prog *Program) []Finding {
	s := &idxScope{
		pass:    d,
		pkg:     pkg,
		aliases: collectFieldAliases(pkg, fd),
		bless:   make(map[types.Object]int),
	}
	s.blessIdents(fd)

	var findings []Finding
	flag := func(pos token.Pos, format string, args ...any) {
		findings = append(findings, Finding{
			Pos:  pkg.Fset.Position(pos),
			Pass: d.Name(),
			Msg:  fmt.Sprintf(format, args...),
		})
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.IndexExpr:
			base := s.arrayName(t.X)
			switch {
			case d.PosArrays[base]:
				if s.exprBless(t.Index)&blessPos == 0 {
					flag(t.Index.Pos(), "position array %s indexed by an unblessed expression; positions come from aIdx[slot] or active-list offsets", base)
				}
			case d.SlotArrays[base]:
				idx := t.Index
				// The occ bitmap is word-addressed: slot >> k.
				if sh, ok := unparen(idx).(*ast.BinaryExpr); ok && sh.Op == token.SHR {
					if _, isLit := unparen(sh.Y).(*ast.BasicLit); isLit {
						idx = sh.X
					}
				}
				if s.exprBless(idx)&blessSlot == 0 {
					flag(t.Index.Pos(), "slot-id array %s indexed by an unblessed expression; slot ids come from the active list, blessed producers or ch*%s+vc packing", base, d.SlotFactor)
				}
			}
		case *ast.CallExpr:
			fn := calleeFunc(pkg, t)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != d.TargetPkg {
				return true
			}
			decl := prog.decls[fn]
			if decl == nil {
				return true
			}
			for i, name := range paramNames(decl) {
				if i >= len(t.Args) {
					break
				}
				switch {
				case d.SlotParams[name]:
					if s.exprBless(t.Args[i])&blessSlot == 0 {
						flag(t.Args[i].Pos(), "argument for slot-id parameter %q of %s is not a blessed slot id", name, fn.Name())
					}
				case d.PosParams[name]:
					if s.exprBless(t.Args[i])&blessPos == 0 {
						flag(t.Args[i].Pos(), "argument for position parameter %q of %s is not a blessed position", name, fn.Name())
					}
				}
			}
		}
		return true
	})
	return findings
}

// paramNames flattens a declaration's parameter names in order.
func paramNames(decl *ast.FuncDecl) []string {
	var names []string
	if decl.Type.Params == nil {
		return nil
	}
	for _, field := range decl.Type.Params.List {
		if len(field.Names) == 0 {
			names = append(names, "_")
			continue
		}
		for _, id := range field.Names {
			names = append(names, id.Name)
		}
	}
	return names
}

// blessIdents computes the blessing fixpoint: parameters by name, range
// bindings over checked containers, bounded loop counters, and locals whose
// every assignment is itself blessed. Three rounds resolve chains like
// moved := active[last]; aIdx[moved] = i.
func (s *idxScope) blessIdents(fd *ast.FuncDecl) {
	// Sources per object: fixed flags and assignment expressions. An object
	// blessed from several sources keeps only what all of them guarantee.
	fixed := make(map[types.Object]int)
	exprs := make(map[types.Object][]ast.Expr)
	counterInit := make(map[types.Object]bool)

	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, id := range field.Names {
				obj := s.pkg.Info.Defs[id]
				if obj == nil {
					continue
				}
				if s.pass.SlotParams[id.Name] {
					fixed[obj] |= blessSlot
				}
				if s.pass.PosParams[id.Name] {
					fixed[obj] |= blessPos
				}
			}
		}
	}

	objOf := func(e ast.Expr) types.Object {
		id, ok := unparen(e).(*ast.Ident)
		if !ok || id.Name == "_" {
			return nil
		}
		if obj := s.pkg.Info.Defs[id]; obj != nil {
			return obj
		}
		return s.pkg.Info.Uses[id]
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.RangeStmt:
			base := s.arrayName(t.X)
			if s.pass.SlotSlices[base] {
				if obj := objOf(t.Value); obj != nil {
					fixed[obj] |= blessSlot
				}
			}
			if s.pass.PosArrays[base] {
				if obj := objOf(t.Key); obj != nil {
					fixed[obj] |= blessPos
				}
			}
		case *ast.ForStmt:
			// for i := 0; i < <position bound>; i++ blesses i as a position.
			init, ok := t.Init.(*ast.AssignStmt)
			if !ok || len(init.Lhs) != 1 || len(init.Rhs) != 1 {
				return true
			}
			if _, isLit := unparen(init.Rhs[0]).(*ast.BasicLit); !isLit {
				return true
			}
			obj := objOf(init.Lhs[0])
			if obj == nil {
				return true
			}
			cond, ok := t.Cond.(*ast.BinaryExpr)
			if !ok || cond.Op != token.LSS || objOf(cond.X) != obj {
				return true
			}
			counterInit[obj] = true
			exprs[obj] = append(exprs[obj], cond.Y) // blessed iff the bound is a position bound
		case *ast.AssignStmt:
			if len(t.Lhs) != len(t.Rhs) {
				return true
			}
			for i, lhs := range t.Lhs {
				obj := objOf(lhs)
				if obj == nil {
					continue
				}
				if as, ok := t.Lhs[i].(*ast.Ident); ok && counterInit[obj] && as.Name != "_" {
					if _, isLit := unparen(t.Rhs[i]).(*ast.BasicLit); isLit {
						continue // the counter's own literal init
					}
				}
				exprs[obj] = append(exprs[obj], t.Rhs[i])
			}
		}
		return true
	})

	objs := make(map[types.Object]bool, len(fixed)+len(exprs))
	for obj := range fixed {
		objs[obj] = true
	}
	for obj := range exprs {
		objs[obj] = true
	}
	for round := 0; round < 3; round++ {
		next := make(map[types.Object]int, len(objs))
		for obj := range objs {
			got := fixed[obj]
			if list := exprs[obj]; len(list) > 0 {
				// Every assignment must be blessed: a reassignment from an
				// unblessed expression clears the object's standing, even
				// for parameters blessed by name.
				all := blessSlot | blessPos
				for _, e := range list {
					all &= s.exprBlessWith(e, s.bless)
				}
				if got != 0 {
					got &= all
				} else {
					got = all
				}
			}
			next[obj] = got
		}
		s.bless = next
	}
}

// exprBless evaluates an expression's blessing with the final fixpoint.
func (s *idxScope) exprBless(e ast.Expr) int { return s.exprBlessWith(e, s.bless) }

// exprBlessWith evaluates the blessing of one expression.
func (s *idxScope) exprBlessWith(e ast.Expr, bless map[types.Object]int) int {
	e = unparen(e)
	switch t := e.(type) {
	case *ast.Ident:
		obj := s.pkg.Info.Uses[t]
		if obj == nil {
			obj = s.pkg.Info.Defs[t]
		}
		return bless[obj]
	case *ast.IndexExpr:
		base := s.arrayName(t.X)
		switch {
		case s.pass.SlotArrays[base] && base != "occ":
			return blessPos // aIdx[slot] is the position translation
		case s.pass.SlotSlices[base]:
			return blessSlot
		}
		return 0
	case *ast.CallExpr:
		// Conversions are transparent; blessed producers yield slot ids;
		// len(<position array>) is a position bound, and a draw below one a
		// position.
		if tv, ok := s.pkg.Info.Types[t.Fun]; ok && tv.IsType() && len(t.Args) == 1 {
			return s.exprBlessWith(t.Args[0], bless)
		}
		if fn := calleeFunc(s.pkg, t); fn != nil {
			if s.pass.SlotProducers[fn.Name()] {
				return blessSlot
			}
			if s.pass.PosProducers[fn.Name()] {
				return blessPos
			}
			if s.pass.PosDraws[fn.Name()] && len(t.Args) == 1 {
				return s.exprBlessWith(t.Args[0], bless) & blessPos
			}
		}
		if id, ok := unparen(t.Fun).(*ast.Ident); ok && id.Name == "len" && len(t.Args) == 1 {
			if s.pass.PosArrays[s.arrayName(t.Args[0])] {
				return blessPos
			}
		}
		return 0
	case *ast.SelectorExpr:
		v, ok := s.pkg.Info.Uses[t.Sel].(*types.Var)
		if !ok || !v.IsField() {
			return 0
		}
		if sel := s.pkg.Info.Selections[t]; sel != nil {
			if named := namedOf(sel.Recv()); named != nil &&
				s.pass.SlotFields[named.Obj().Name()+"."+t.Sel.Name] {
				return blessSlot
			}
		}
		return 0
	case *ast.BinaryExpr:
		switch t.Op {
		case token.ADD:
			// ch*numVCs + vc packs a slot id.
			if s.mulBySlotFactor(t.X) || s.mulBySlotFactor(t.Y) {
				return blessSlot
			}
			// position ± literal stays a position (len(active)-1).
			if _, isLit := unparen(t.Y).(*ast.BasicLit); isLit {
				return s.exprBlessWith(t.X, bless) & blessPos
			}
		case token.SUB:
			if _, isLit := unparen(t.Y).(*ast.BasicLit); isLit {
				return s.exprBlessWith(t.X, bless) & blessPos
			}
		}
		return 0
	}
	return 0
}

// mulBySlotFactor reports whether e multiplies by the slot-packing factor
// (numVCs), possibly through conversions.
func (s *idxScope) mulBySlotFactor(e ast.Expr) bool {
	e = unparen(e)
	if call, ok := e.(*ast.CallExpr); ok && len(call.Args) == 1 {
		if tv, ok := s.pkg.Info.Types[call.Fun]; ok && tv.IsType() {
			return s.mulBySlotFactor(call.Args[0])
		}
	}
	bin, ok := e.(*ast.BinaryExpr)
	if !ok || bin.Op != token.MUL {
		return false
	}
	mentions := func(x ast.Expr) bool {
		found := false
		ast.Inspect(x, func(n ast.Node) bool {
			switch t := n.(type) {
			case *ast.SelectorExpr:
				if t.Sel.Name == s.pass.SlotFactor {
					if v, ok := s.pkg.Info.Uses[t.Sel].(*types.Var); ok && v.IsField() {
						found = true
					}
				}
			case *ast.Ident:
				// The engines keep a converted local copy of the factor
				// (numVCs := int32(b.numVCs)); the name carries the role.
				if t.Name == s.pass.SlotFactor {
					found = true
				}
			}
			return !found
		})
		return found
	}
	return mentions(bin.X) || mentions(bin.Y)
}

// arrayName resolves the base of an index expression to the underlying
// field name, through local aliases (hotA := rep.hotA). A plain local or
// parameter with no field chain is named by its identifier — the batch
// engine passes its dense slices around by role-carrying names (moves,
// cand).
func (s *idxScope) arrayName(e ast.Expr) string {
	chain, _ := fieldChain(s.pkg, s.aliases, e)
	if len(chain) > 0 {
		return chain[len(chain)-1]
	}
	if id, ok := unparen(e).(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
