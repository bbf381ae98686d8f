#include "compiler/codegen.h"

#include <set>

#include "support/panic.h"

namespace mxl {

namespace {

const std::set<std::string> &
specialForms()
{
    static const std::set<std::string> forms = {
        "quote", "if", "cond", "progn", "let", "let*", "setq", "while",
        "and", "or", "de",
    };
    return forms;
}

/** Primitive heads that compile to a runtime call (clobber temps). */
const std::set<std::string> &
callingPrims()
{
    static const std::set<std::string> prims = {
        "cons", "mkvect", "mkstring", "apply", "list",
    };
    return prims;
}

/** All heads compiled inline (never user-call fallthrough). */
bool
isInlinePrimHead(const std::string &n);

} // namespace

CodeGen::CodeGen(SxArena &arena, ImageBuilder &image, AsmBuffer &buf,
                 const CompilerOptions &opts, const TagScheme &scheme)
    : arena_(arena), image_(image), buf_(buf), opts_(opts), scheme_(scheme)
{
}

void
CodeGen::declareFunction(Sx *name, int arity)
{
    MXL_ASSERT(name->isSym(), "function name must be a symbol");
    if (arity > abi::argLast - abi::arg0 + 1)
        fatal("function ", name->text, " has too many parameters");
    auto it = functions_.find(name);
    if (it != functions_.end()) {
        // Redefinition: keep the label, update the arity (user programs
        // may override library functions).
        it->second.arity = arity;
        return;
    }
    int label = buf_.newLabel("fn_" + name->text);
    // Exported so the unit can patch symbol function cells (apply)
    // after linking.
    buf_.exportLabel(label);
    functions_.emplace(name, FnInfo{label, arity});
}

int
CodeGen::functionLabel(Sx *name, int arity)
{
    auto it = functions_.find(name);
    if (it == functions_.end())
        fatal("call to undefined function '", name->text, "' in ",
              currentFunction_);
    if (it->second.arity != arity)
        fatal("call to '", name->text, "' with ", arity, " args (expects ",
              it->second.arity, ") in ", currentFunction_);
    return it->second.label;
}

// ---------------------------------------------------------------------
// Temps and stack traffic
// ---------------------------------------------------------------------

Reg
CodeGen::allocTemp()
{
    if (abi::tmp0 + tempTop_ > abi::tmpLast)
        fatal("expression too complex (out of temporaries) in ",
              currentFunction_);
    return static_cast<Reg>(abi::tmp0 + tempTop_++);
}

void
CodeGen::freeTemp(Reg r)
{
    MXL_ASSERT(tempTop_ > 0 && r == abi::tmp0 + tempTop_ - 1,
               "non-LIFO temp free");
    --tempTop_;
}

void
CodeGen::freeTempsAbove(int mark)
{
    MXL_ASSERT(mark <= tempTop_, "bad temp mark");
    tempTop_ = mark;
}

void
CodeGen::pushReg(Reg r)
{
    buf_.opImm(Opcode::Addi, abi::sp, abi::sp, -4, {Purpose::Useful});
    buf_.st(r, abi::sp, 0, {Purpose::Useful});
    env_.push();
}

void
CodeGen::popTo(Reg r)
{
    buf_.ld(r, abi::sp, 0, {Purpose::Useful});
    buf_.opImm(Opcode::Addi, abi::sp, abi::sp, 4, {Purpose::Useful});
    env_.pop(1);
}

void
CodeGen::dropWords(int n)
{
    if (n == 0)
        return;
    buf_.opImm(Opcode::Addi, abi::sp, abi::sp, 4 * n, {Purpose::Useful});
    env_.pop(n);
}

// ---------------------------------------------------------------------
// Classification
// ---------------------------------------------------------------------

bool
CodeGen::isSimple(Sx *e) const
{
    switch (e->kind) {
      case SxKind::Int:
      case SxKind::Sym:
      case SxKind::Str:
        return true;
      case SxKind::Pair:
        return e->car->isSym("quote");
    }
    return false;
}

bool
CodeGen::containsCall(Sx *e) const
{
    if (!e->isPair())
        return false;
    Sx *head = e->car;
    if (head->isSym("quote"))
        return false;
    if (head->isSym()) {
        const std::string &n = head->text;
        if (callingPrims().count(n))
            return true;
        if (!specialForms().count(n) && !isInlinePrimHead(n) &&
            !isCxr(n) && functions_.count(head))
            return true; // user/library function call
        // Special form or inline primitive: recurse into arguments.
        for (Sx *p = e->cdr; p->isPair(); p = p->cdr) {
            if (containsCall(p->car))
                return true;
        }
        return false;
    }
    return true; // non-symbol head: treated conservatively
}

// ---------------------------------------------------------------------
// Variables and constants
// ---------------------------------------------------------------------

void
CodeGen::loadConstant(Sx *quoted, Reg target)
{
    buf_.li(target, image_.constWord(quoted), {Purpose::Useful});
}

void
CodeGen::loadVar(Sx *sym, Reg target)
{
    if (sym->isNil()) {
        buf_.mov(target, abi::nilreg, {Purpose::Useful});
        return;
    }
    if (sym->isSym("t")) {
        buf_.mov(target, abi::treg, {Purpose::Useful});
        return;
    }
    int off = env_.offsetOf(sym);
    if (off >= 0) {
        buf_.ld(target, abi::sp, off, {Purpose::Useful});
        return;
    }
    // Global: the symbol's value cell, at a link-time-known address.
    Reg s = allocTemp();
    buf_.li(s, image_.symbolAddr(sym->text), {Purpose::Useful});
    buf_.ld(target, s, symoff::value, {Purpose::Useful});
    freeTemp(s);
}

void
CodeGen::storeVar(Sx *sym, Reg value)
{
    MXL_ASSERT(!sym->isNil() && !sym->isSym("t"), "assignment to constant");
    int off = env_.offsetOf(sym);
    if (off >= 0) {
        buf_.st(value, abi::sp, off, {Purpose::Useful});
        return;
    }
    Reg s = allocTemp();
    buf_.li(s, image_.symbolAddr(sym->text), {Purpose::Useful});
    buf_.st(value, s, symoff::value, {Purpose::Useful});
    freeTemp(s);
}

// ---------------------------------------------------------------------
// Operand evaluation
// ---------------------------------------------------------------------

void
CodeGen::evalTwo(Sx *a, Sx *b, Reg &ra, Reg &rb)
{
    // Park the left value on the stack when the right side may clobber
    // temporaries (calls), or when register pressure from nested
    // operators is getting high (each nesting level holds two temps).
    if (!containsCall(b) && tempTop_ < 4) {
        ra = allocTemp();
        expr(a, ra);
        rb = allocTemp();
        expr(b, rb);
    } else {
        // Park both operands: temp usage stays constant no matter how
        // deep the operator nest goes.
        expr(a, abi::ret);
        pushReg(abi::ret);
        expr(b, abi::ret);
        pushReg(abi::ret);
        rb = allocTemp();
        popTo(rb);
        ra = allocTemp();
        popTo(ra);
    }
}

void
CodeGen::exprSys(Sx *e, Reg target)
{
    if (e->isInt()) {
        buf_.li(target, e->ival, {Purpose::Useful});
        return;
    }
    expr(e, target);
}

void
CodeGen::evalTwoSys(Sx *a, Sx *b, Reg &ra, Reg &rb)
{
    if (!containsCall(b) && tempTop_ < 4) {
        ra = allocTemp();
        exprSys(a, ra);
        rb = allocTemp();
        exprSys(b, rb);
    } else {
        exprSys(a, abi::ret);
        pushReg(abi::ret);
        exprSys(b, abi::ret);
        pushReg(abi::ret);
        rb = allocTemp();
        popTo(rb);
        ra = allocTemp();
        popTo(ra);
    }
}

// ---------------------------------------------------------------------
// Calls
// ---------------------------------------------------------------------

void
CodeGen::compileCallTo(int label, const std::vector<Sx *> &args, Reg target,
                       Annotation callAnn)
{
    int n = static_cast<int>(args.size());
    MXL_ASSERT(n <= abi::argLast - abi::arg0 + 1, "too many call args");

    bool allSimple = true;
    for (Sx *a : args) {
        if (!isSimple(a))
            allSimple = false;
    }

    if (allSimple) {
        for (int i = 0; i < n; ++i)
            expr(args[i], static_cast<Reg>(abi::arg0 + i));
    } else {
        // Evaluate left-to-right, parking each value on the stack (any
        // argument may contain calls). Values are produced in r1 so
        // deep nests of calls do not accumulate held temporaries.
        for (int i = 0; i < n; ++i) {
            expr(args[i], abi::ret);
            pushReg(abi::ret);
        }
        for (int i = 0; i < n; ++i) {
            buf_.ld(static_cast<Reg>(abi::arg0 + i), abi::sp,
                    4 * (n - 1 - i), {Purpose::Useful});
        }
        dropWords(n);
    }
    buf_.jal(abi::link, label, callAnn);
    if (target != abi::ret)
        buf_.mov(target, abi::ret, {Purpose::Useful});
}

void
CodeGen::compileCall(Sx *head, const std::vector<Sx *> &args, Reg target)
{
    int label = functionLabel(head, static_cast<int>(args.size()));
    compileCallTo(label, args, target);
}

// ---------------------------------------------------------------------
// Special forms
// ---------------------------------------------------------------------

void
CodeGen::compileBody(Sx *forms, Reg target)
{
    if (!forms->isPair()) {
        buf_.mov(target, abi::nilreg, {Purpose::Useful});
        return;
    }
    while (forms->cdr->isPair()) {
        expr(forms->car, abi::ret); // value discarded
        forms = forms->cdr;
    }
    expr(forms->car, target);
}

void
CodeGen::formIf(Sx *e, Reg target)
{
    auto parts = listElems(e->cdr);
    MXL_ASSERT(parts.size() == 2 || parts.size() == 3, "malformed if");
    int lElse = buf_.newLabel();
    int lEnd = buf_.newLabel();
    condBranchFalse(parts[0], lElse);
    expr(parts[1], target);
    buf_.jump(lEnd, {Purpose::Useful});
    buf_.placeLabel(lElse);
    if (parts.size() == 3)
        expr(parts[2], target);
    else
        buf_.mov(target, abi::nilreg, {Purpose::Useful});
    buf_.placeLabel(lEnd);
}

void
CodeGen::formCond(Sx *e, Reg target)
{
    int lEnd = buf_.newLabel();
    bool sawDefault = false;
    for (Sx *p = e->cdr; p->isPair(); p = p->cdr) {
        Sx *clause = p->car;
        MXL_ASSERT(clause->isPair(), "malformed cond clause");
        Sx *test = clause->car;
        Sx *body = clause->cdr;
        if (test->isSym("t")) {
            compileBody(body, target);
            sawDefault = true;
            break;
        }
        int lNext = buf_.newLabel();
        if (body->isPair()) {
            condBranchFalse(test, lNext);
            compileBody(body, target);
        } else {
            // Clause value is the test itself.
            expr(test, target);
            buf_.branch(Opcode::Beq, target, abi::nilreg, lNext, {Purpose::Useful});
        }
        buf_.jump(lEnd, {Purpose::Useful});
        buf_.placeLabel(lNext);
    }
    if (!sawDefault)
        buf_.mov(target, abi::nilreg, {Purpose::Useful});
    buf_.placeLabel(lEnd);
}

void
CodeGen::formLet(Sx *e, Reg target, bool sequential)
{
    Sx *bindings = listNth(e, 1);
    Sx *body = e->cdr->cdr;
    int n = 0;
    int baseDepth = env_.depth();
    std::vector<std::pair<Sx *, int>> pending;
    for (Sx *p = bindings; p->isPair(); p = p->cdr) {
        Sx *bind = p->car;
        Sx *var;
        Sx *init;
        if (bind->isSym()) {
            var = bind;
            init = arena_.nil();
        } else {
            var = bind->car;
            init = bind->cdr->isPair() ? bind->cdr->car : arena_.nil();
        }
        expr(init, abi::ret);
        pushReg(abi::ret);
        if (sequential) {
            env_.bind(var);
        } else {
            // Parallel let: bindings become visible only after all the
            // inits are evaluated.
            pending.push_back({var, baseDepth + n + 1});
        }
        ++n;
    }
    for (auto &[var, depth] : pending)
        env_.bindAt(var, depth);
    compileBody(body, target);
    dropWords(n);
}

void
CodeGen::formSetq(Sx *e, Reg target)
{
    auto parts = listElems(e->cdr);
    MXL_ASSERT(parts.size() == 2 && parts[0]->isSym(), "malformed setq");
    expr(parts[1], target);
    storeVar(parts[0], target);
}

void
CodeGen::formWhile(Sx *e, Reg target)
{
    Sx *test = listNth(e, 1);
    Sx *body = e->cdr->cdr;
    int lTop = buf_.newLabel();
    int lEnd = buf_.newLabel();
    buf_.placeLabel(lTop);
    condBranchFalse(test, lEnd);
    for (Sx *p = body; p->isPair(); p = p->cdr)
        expr(p->car, abi::ret);
    buf_.jump(lTop, {Purpose::Useful});
    buf_.placeLabel(lEnd);
    buf_.mov(target, abi::nilreg, {Purpose::Useful});
}

void
CodeGen::formAndOr(Sx *e, Reg target, bool isAnd)
{
    auto parts = listElems(e->cdr);
    if (parts.empty()) {
        if (isAnd)
            buf_.mov(target, abi::treg, {Purpose::Useful});
        else
            buf_.mov(target, abi::nilreg, {Purpose::Useful});
        return;
    }
    int lEnd = buf_.newLabel();
    for (size_t i = 0; i < parts.size(); ++i) {
        expr(parts[i], target);
        if (i + 1 < parts.size()) {
            buf_.branch(isAnd ? Opcode::Beq : Opcode::Bne, target,
                        abi::nilreg, lEnd, {Purpose::Useful});
        }
    }
    buf_.placeLabel(lEnd);
}

// ---------------------------------------------------------------------
// Conditions
// ---------------------------------------------------------------------

void
CodeGen::condBranchFalse(Sx *cond, int falseLabel)
{
    if (primCondBranch(cond, falseLabel, /*branchIfTrue=*/false))
        return;
    int mark = tempMark();
    Reg t = allocTemp();
    expr(cond, t);
    buf_.branch(Opcode::Beq, t, abi::nilreg, falseLabel, {Purpose::Useful});
    freeTempsAbove(mark);
}

void
CodeGen::condBranchTrue(Sx *cond, int trueLabel)
{
    if (primCondBranch(cond, trueLabel, /*branchIfTrue=*/true))
        return;
    int mark = tempMark();
    Reg t = allocTemp();
    expr(cond, t);
    buf_.branch(Opcode::Bne, t, abi::nilreg, trueLabel, {Purpose::Useful});
    freeTempsAbove(mark);
}

void
CodeGen::materializeBool(int trueLabel, Reg target)
{
    int lEnd = buf_.newLabel();
    buf_.mov(target, abi::nilreg, {Purpose::Useful});
    buf_.jump(lEnd, {Purpose::Useful});
    buf_.placeLabel(trueLabel);
    buf_.mov(target, abi::treg, {Purpose::Useful});
    buf_.placeLabel(lEnd);
}

// ---------------------------------------------------------------------
// Cold sections
// ---------------------------------------------------------------------

void
CodeGen::addCold(std::function<void()> emitFn)
{
    cold_.push_back(std::move(emitFn));
}

void
CodeGen::flushCold()
{
    // Cold blocks may themselves add cold blocks (rare); drain fully.
    while (!cold_.empty()) {
        auto blocks = std::move(cold_);
        cold_.clear();
        for (auto &b : blocks)
            b();
    }
}

// ---------------------------------------------------------------------
// Expression dispatch
// ---------------------------------------------------------------------

void
CodeGen::expr(Sx *e, Reg target)
{
    switch (e->kind) {
      case SxKind::Int:
        if (!scheme_.fixnumInRange(e->ival))
            fatal("integer literal out of fixnum range: ", e->ival);
        buf_.li(target, scheme_.encodeFixnum(e->ival), {Purpose::Useful});
        return;
      case SxKind::Str:
        buf_.li(target, image_.stringWord(e->text), {Purpose::Useful});
        return;
      case SxKind::Sym:
        loadVar(e, target);
        return;
      case SxKind::Pair:
        break;
    }

    Sx *head = e->car;
    if (!head->isSym())
        fatal("non-symbol in function position: ", head->text);
    const std::string &n = head->text;

    if (n == "quote") {
        loadConstant(listNth(e, 1), target);
        return;
    }
    if (n == "if") {
        formIf(e, target);
        return;
    }
    if (n == "cond") {
        formCond(e, target);
        return;
    }
    if (n == "progn") {
        compileBody(e->cdr, target);
        return;
    }
    if (n == "let" || n == "let*") {
        formLet(e, target, n == "let*");
        return;
    }
    if (n == "setq") {
        formSetq(e, target);
        return;
    }
    if (n == "while") {
        formWhile(e, target);
        return;
    }
    if (n == "and" || n == "or") {
        formAndOr(e, target, n == "and");
        return;
    }
    if (n == "de")
        fatal("nested function definition is not supported");

    auto args = listElems(e->cdr);
    if (isCxr(n)) {
        MXL_ASSERT(args.size() == 1, "cxr arity");
        compileCxr(n, args[0], target);
        return;
    }
    if (compilePrimitive(n, args, target))
        return;
    compileCall(head, args, target);
}

// ---------------------------------------------------------------------
// Functions
// ---------------------------------------------------------------------

void
CodeGen::compileFunction(Sx *def)
{
    auto parts = listElems(def);
    MXL_ASSERT(parts.size() >= 3 && parts[0]->isSym("de"),
               "malformed de form");
    Sx *name = parts[1];
    auto params = listElems(parts[2]);
    int arity = static_cast<int>(params.size());
    currentFunction_ = name->text;

    auto it = functions_.find(name);
    MXL_ASSERT(it != functions_.end(), "function not declared: ",
               name->text);
    MXL_ASSERT(it->second.arity == arity, "arity mismatch for ",
               name->text);

    env_ = FrameEnv();
    tempTop_ = 0;
    ++procedures_;

    buf_.placeLabel(it->second.label);
    // Prologue: one frame for the return address and the parameters.
    buf_.opImm(Opcode::Addi, abi::sp, abi::sp, -4 * (1 + arity), {Purpose::Useful});
    buf_.st(abi::link, abi::sp, 4 * arity, {Purpose::Useful});
    env_.push(); // link (a fixnum-coded code address: GC-inert)
    for (int i = 0; i < arity; ++i) {
        buf_.st(static_cast<Reg>(abi::arg0 + i), abi::sp,
                4 * (arity - 1 - i), {Purpose::Useful});
        env_.push();
        env_.bind(params[i]);
    }

    Sx *body = def->cdr->cdr->cdr;
    compileBody(body, abi::ret);

    MXL_ASSERT(env_.depth() == 1 + arity, "unbalanced frame in ",
               name->text);
    buf_.ld(abi::scratch, abi::sp, 4 * arity, {Purpose::Useful});
    buf_.opImm(Opcode::Addi, abi::sp, abi::sp, 4 * (1 + arity), {Purpose::Useful});
    buf_.jr(abi::scratch, {Purpose::Useful});

    flushCold();
    MXL_ASSERT(tempTop_ == 0, "leaked temporaries in ", name->text);
}

void
CodeGen::compileMain(const std::vector<Sx *> &topForms)
{
    currentFunction_ = "main";
    env_ = FrameEnv();
    tempTop_ = 0;

    // `main` is declared like any function (arity 0) so stubs can call
    // it; the exported symbol marks the same spot for Program lookup.
    auto it = functions_.find(arena_.sym("main"));
    MXL_ASSERT(it != functions_.end(), "main not declared");
    buf_.placeLabel(it->second.label);
    buf_.defineSymbol("main");
    for (Sx *form : topForms)
        expr(form, abi::ret);
    buf_.sys(SysCode::Halt, abi::ret, {Purpose::Useful});
    flushCold();
}

namespace {

bool
isInlinePrimHead(const std::string &n)
{
    static const std::set<std::string> prims = {
        // list / predicates
        "car", "cdr", "rplaca", "rplacd", "eq", "null", "not", "atom",
        "pairp", "symbolp", "stringp", "vectorp", "fixp", "zerop",
        "minusp", "onep",
        // arithmetic / comparison
        "+", "-", "*", "quotient", "remainder", "add1", "sub1", "minus",
        "lessp", "greaterp", "leq", "geq", "eqn",
        // vectors / strings
        "getv", "putv", "upbv", "string-length", "string-ref",
        "string-set",
        // symbols
        "plist", "setplist", "symbol-name", "subtype",
        // io / error
        "putfixnum", "putcharcode", "error",
        // sys-Lisp
        "sys-load", "sys-store", "sys+", "sys-", "sys<", "sys<=", "sys=",
        "sys-word", "sys-and", "sys-xor", "sys-sll", "sys-srl",
        "sys-detag",
        "sys-cellref", "sys-cellset", "sys-reg", "sys-setreg",
    };
    return prims.count(n) != 0;
}

} // namespace

} // namespace mxl
