"""Definite binary quadratic forms: reduction, class groups, orbit censuses.

Forms a x^2 + b x y + c y^2 of negative discriminant are reduced to their
unique canonical representatives, composed through the congruence method,
and enumerated into class groups whose axioms are asserted rather than
assumed.  The census walks the actual generator graph on a coefficient box
and compares component counts against the class number, reporting any
mismatch with witnesses instead of suppressing it.
"""

from math import gcd, isqrt

from .arith import crt
from .errors import (BudgetExceeded, InvalidDiscriminant,
                     NotNegativeDiscriminant, NotPositiveDefinite,
                     NotPrimitive)

# (a, b) pairs one class group or census may scan, checked before any
# work.  The class group's time grows with the h^3 associativity check:
# at the largest admitted |d| the largest class number found, h = 667 at
# d = -147,671, takes 22 s (shared 2-vCPU VM); a census box admitted
# alongside it scans in under 1 s.
FORM_PAIR_BUDGET = 50_000


class BQForm:
    """An integral binary quadratic form a x^2 + b x y + c y^2."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        self.a = int(a)
        self.b = int(b)
        self.c = int(c)

    @property
    def disc(self):
        return self.b * self.b - 4 * self.a * self.c

    @property
    def content(self):
        return gcd(gcd(self.a, self.b), self.c)

    def is_primitive(self):
        return self.content == 1

    def value(self, x, y):
        return self.a * x * x + self.b * x * y + self.c * y * y

    def as_tuple(self):
        return (self.a, self.b, self.c)

    def __eq__(self, other):
        if isinstance(other, BQForm):
            return self.as_tuple() == other.as_tuple()
        return NotImplemented

    def __hash__(self):
        return hash(self.as_tuple())

    def __repr__(self):
        return "BQForm(%d, %d, %d)" % (self.a, self.b, self.c)


def _check_definite(F):
    if F.disc >= 0:
        raise NotNegativeDiscriminant("discriminant %d is not negative"
                                      % F.disc)
    if F.a <= 0:
        raise NotPositiveDefinite("leading coefficient %d is not positive"
                                  % F.a)


def is_reduced(F):
    """|b| <= a <= c, with b >= 0 on either boundary."""
    _check_definite(F)
    a, b, c = F.as_tuple()
    if not (-a < b <= a <= c):
        return False
    return b >= 0 or (abs(b) < a and a < c)


def bqf_reduce(F):
    """The unique reduced form properly equivalent to F.

    Alternates translations b -> b mod 2a (into (-a, a]) with the swap
    (a,b,c) -> (c,-b,a) until |b| <= a <= c, then fixes the boundary sign.
    """
    _check_definite(F)
    d = F.disc
    a, b, c = F.as_tuple()
    for _ in range(10000):
        r = b % (2 * a)
        if r > a:
            r -= 2 * a
        b = r
        c = (b * b - d) // (4 * a)
        if a <= c:
            break
        a, b, c = c, -b, a
    else:
        raise AssertionError("reduction failed to terminate")
    if b < 0 and (b == -a or a == c):
        b = -b
    out = BQForm(a, b, c)
    assert out.disc == d and out.content == F.content
    assert is_reduced(out)
    return out


def _check_discriminant(d):
    d = int(d)
    if d >= 0 or d % 4 not in (0, 1):
        raise InvalidDiscriminant("%d is not a negative discriminant" % d)
    return d


def _check_pairs(d, box=0):
    """Refuse, before any work, to scan more than FORM_PAIR_BUDGET pairs:
    reduced_forms tries 2a + 1 values of b for each a with 3a^2 <= -d,
    and a census box of bound B adds B (2B + 1) more."""
    a = isqrt(-d // 3)
    need = a * a + 2 * a + box
    if need > FORM_PAIR_BUDGET:
        raise BudgetExceeded("%d (a, b) pairs to scan, past"
                             " FORM_PAIR_BUDGET = %d"
                             % (need, FORM_PAIR_BUDGET))


def reduced_forms(d):
    """The reduced primitive forms of discriminant d < 0, by (a, -b)."""
    d = _check_discriminant(d)
    out = []
    a = 1
    while 3 * a * a <= -d:
        for b in range(-a, a + 1):
            if (b - d) % 2:
                continue
            if (b * b - d) % (4 * a):
                continue
            c = (b * b - d) // (4 * a)
            if c < a:
                continue
            if b < 0 and (b == -a or a == c):
                continue
            F = BQForm(a, b, c)
            if F.is_primitive():
                out.append(F)
        a += 1
    out.sort(key=lambda F: (F.a, -F.b, F.c))
    return out


def compose_forms(F, G):
    """Composition of primitive forms of one discriminant, reduced.

    Builds the composite (A, B, C) with A = a1 a2 / e^2 and B cut out by
    the classical congruence system, solved with a non-coprime CRT."""
    if not F.is_primitive() or not G.is_primitive():
        raise NotPrimitive("composition needs primitive forms")
    d = F.disc
    if G.disc != d:
        raise InvalidDiscriminant("discriminants %d and %d differ"
                                  % (d, G.disc))
    _check_definite(F)
    _check_definite(G)
    a1, b1, c1 = F.as_tuple()
    a2, b2, c2 = G.as_tuple()
    s = (b1 + b2) // 2
    e = gcd(gcd(a1, a2), s)
    A = a1 * a2 // (e * e)
    residues = [b1, b2]
    moduli = [2 * a1 // e, 2 * a2 // e]
    # third condition: s * B = (b1 b2 + d) / 2  mod  2 a1 a2 / e
    m3 = 2 * a1 * a2 // e
    r3 = (b1 * b2 + d) // 2
    g3 = gcd(s, m3)
    assert r3 % g3 == 0
    if m3 // g3 > 1:
        inv = pow((s // g3) % (m3 // g3), -1, m3 // g3)
        residues.append((r3 // g3) * inv)
        moduli.append(m3 // g3)
    B, _ = crt(residues, moduli)
    B %= 2 * A
    assert (B * B - d) % (4 * A) == 0
    out = BQForm(A, B, (B * B - d) // (4 * A))
    assert out.disc == d and out.is_primitive()
    return bqf_reduce(out)


class ClassGroup:
    """The form class group of a negative discriminant: the reduced
    primitive forms, their count h, and the full composition table
    (table[i][j] is the index of the composite class)."""

    __slots__ = ("d", "forms", "h", "table")

    def __init__(self, d, forms, table):
        self.d = d
        self.forms = tuple(forms)
        self.h = len(self.forms)
        self.table = tuple(tuple(row) for row in table)

    @property
    def identity(self):
        return self.forms[0]

    def class_index(self, F):
        """Index of F's proper equivalence class among the reduced forms."""
        return self.forms.index(bqf_reduce(F))

    def __repr__(self):
        return "ClassGroup(d=%d, h=%d)" % (self.d, self.h)


def bqf_class_group(d):
    """Reduced primitive forms of discriminant d < 0 under composition.

    Identity position, closure, commutativity, inverses (the opposite
    form), and associativity are all asserted on the finished table."""
    d = _check_discriminant(d)
    _check_pairs(d)
    forms = reduced_forms(d)
    index = {F.as_tuple(): i for i, F in enumerate(forms)}
    h = len(forms)
    table = [[0] * h for _ in range(h)]
    for i in range(h):
        for j in range(i, h):
            comp = compose_forms(forms[i], forms[j])
            k = index[comp.as_tuple()]
            table[i][j] = k
            table[j][i] = k
    assert forms[0].a == 1
    for i in range(h):
        assert table[0][i] == i and table[i][0] == i
        F = forms[i]
        opp = bqf_reduce(BQForm(F.a, -F.b, F.c))
        assert table[i][index[opp.as_tuple()]] == 0
    for i in range(h):
        for j in range(h):
            for k in range(h):
                assert table[table[i][j]][k] == table[i][table[j][k]]
    return ClassGroup(d, forms, table)


class FormCensus:
    """Outcome of the generator-graph census: component count within the
    box, the class number it is measured against, whether they agree, and
    explicit witnesses for every anomaly found."""

    __slots__ = ("d", "bound", "orbit_count", "class_number", "agreement",
                 "witnesses")

    def __init__(self, d, bound, orbit_count, class_number, witnesses):
        self.d = d
        self.bound = bound
        self.orbit_count = orbit_count
        self.class_number = class_number
        self.witnesses = tuple(witnesses)
        self.agreement = (orbit_count == class_number
                          and not self.witnesses)

    def __repr__(self):
        return ("FormCensus(d=%d, bound=%d, orbits=%d, h=%d, agreement=%r)"
                % (self.d, self.bound, self.orbit_count, self.class_number,
                   self.agreement))


def _census_nodes(d, bound):
    nodes = []
    for a in range(1, bound + 1):
        for b in range(-bound, bound + 1):
            if (b - d) % 2:
                continue
            t = b * b - d
            if t % (4 * a):
                continue
            c = t // (4 * a)
            if c < 1 or c > bound:
                continue
            if gcd(gcd(a, b), c) != 1:
                continue
            nodes.append((a, b, c))
    return nodes


def bqf_orbit_census(d, bound):
    """Count proper equivalence classes inside a coefficient box.

    Nodes are the primitive positive definite forms of discriminant d with
    all coefficients bounded; edges are the swap (a,b,c) -> (c,-b,a) and
    the translations b -> b +- 2a.  The component count is compared with
    the class number; components holding anything other than exactly one
    reduced form, and reduced classes missing from the box, are reported
    as witnesses."""
    d = _check_discriminant(d)
    bound = int(bound)
    if bound < 1:
        raise InvalidDiscriminant("box bound must be positive")
    _check_pairs(d, bound * (2 * bound + 1))
    nodes = _census_nodes(d, bound)
    pos = {f: i for i, f in enumerate(nodes)}
    parent = list(range(len(nodes)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj

    for f in nodes:
        a, b, c = f
        i = pos[f]
        for img in ((c, -b, a), (a, b + 2 * a, a + b + c),
                    (a, b - 2 * a, a - b + c)):
            j = pos.get(img)
            if j is not None:
                union(i, j)

    comps = {}
    for f in nodes:
        comps.setdefault(find(pos[f]), []).append(f)
    forms = reduced_forms(d)
    witnesses = []
    seen_reduced = set()
    for root, members in sorted(comps.items()):
        red = [f for f in members
               if is_reduced(BQForm(*f))]
        seen_reduced.update(red)
        if len(red) != 1:
            witnesses.append(("component", min(members), tuple(sorted(red))))
    for F in forms:
        if max(F.as_tuple()) <= bound and abs(F.b) <= bound:
            continue
        witnesses.append(("outside-box", F.as_tuple(), ()))
    for F in forms:
        t = F.as_tuple()
        if max(t) <= bound and t not in seen_reduced:
            witnesses.append(("unreached", t, ()))
    return FormCensus(d, bound, len(comps), len(forms), witnesses)
