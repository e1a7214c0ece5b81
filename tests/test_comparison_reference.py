"""The comparison functors and the product and sum audits against a
class-by-class reference.

The reference below builds every ``ArrowClass`` and reads each label's
class through ``class_of_label``, composes through ``compose`` and lists
homs through ``hom``: the public category API only.  The package reads
label numbers instead and builds a class only for what a report returns;
every returned field must be the same, in the same order.
"""
from __future__ import annotations

import importlib
import itertools

from hypothesis import given, settings

from conftest import build_corpus
from strategies import presented_complexes
from cspace import (
    ArrowClass,
    FundamentalCategory,
    PresentedComplex,
    check_fullness,
    check_product_preservation,
    check_sum_preservation,
    circle_n_stop,
    full_substructure,
    idkey,
    induced_comparisons,
    interval_c,
    interval_j,
    interval_middle_delay,
    line_c,
    pi1,
    product,
    reflect_dhat,
    reflect_fl,
    sum_complex,
    symmetrize,
)


# ---------------------------------------------------------------------------
# the reference, class by class


def _ref_arrow_map(src, dst):
    amap = {}
    ok = True
    for a in src.arrows:
        images = {dst.class_of_label(s, w) for s, w in a.labels}
        if None in images:
            return amap, False
        indices = {b.index for b in images}
        if len(indices) != 1:
            ok = False
        amap[a.index] = min(indices)
    for a in src.arrows:
        for b in src.arrows:
            if a.target != b.source:
                continue
            c = src.compose(a, b)
            if c is None:
                continue
            d = dst.compose(dst.arrows[amap[a.index]], dst.arrows[amap[b.index]])
            if d is None or amap[c.index] != d.index:
                ok = False
    return amap, ok


def _ref_hom_image_check(src, dst, amap):
    full = True
    faithful = True
    missing = []
    for x, y in itertools.product(src.objects, repeat=2):
        images = [amap[a.index] for a in src.hom(x, y)]
        if len(set(images)) != len(images):
            faithful = False
        hit = set(images)
        for b in dst.hom(x, y):
            if b.index not in hit:
                full = False
                missing.append((x, y, b.rep))
    return full, faithful, tuple(missing)


def _ref_class_images(cat, image_of, noun):
    image = {}
    mismatches = []
    for a in cat.arrows:
        images = {image_of(lab) for lab in a.labels}
        if None in images:
            mismatches.append(f"{noun} of {a} leaves the factor category")
        elif len(images) != 1:
            mismatches.append(f"{noun}s of {a} disagree across its labels")
        else:
            image[a.index] = images.pop()
    return image, mismatches


def _ref_induced(X, bound):
    cat_fl = pi1(reflect_fl(X), bound)
    cat_x = pi1(X, bound)
    cat_dh = pi1(reflect_dhat(X), bound)
    first_map, first_ok = _ref_arrow_map(cat_fl, cat_x)
    second_map, second_ok = _ref_arrow_map(cat_x, cat_dh)
    full, faithful, missing = _ref_hom_image_check(cat_x, cat_dh, second_map)
    return (cat_fl, cat_x, cat_dh, first_map, second_map, first_ok, second_ok,
            full, faithful, missing)


def _ref_fullness(X, S, bound):
    cat_sub = pi1(full_substructure(X, S), bound)
    cat_x = pi1(X, bound)
    amap, ok = _ref_arrow_map(cat_sub, cat_x)
    full, faithful, missing = _ref_hom_image_check(cat_sub, cat_x, amap)
    return full and ok, faithful, missing


def _ref_product(X, Y, bound):
    P = product(X, Y)
    cat_p, cat_x, cat_y = pi1(P, bound), pi1(X, bound), pi1(Y, bound)
    mismatches = []
    want_objects = {(x, y) for x in cat_x.objects for y in cat_y.objects}
    objects_ok = set(cat_p.objects) == want_objects
    if not objects_ok:
        mismatches.append("object sets differ")

    def project(label):
        (x, y), word = label
        lw, _, rw, _ = P._split(word, 0)
        ca, cb = cat_x.class_of_label(x, lw), cat_y.class_of_label(y, rw)
        return None if ca is None or cb is None else (ca.index, cb.index)

    image, bad = _ref_class_images(cat_p, project, "projection")
    mismatches += bad
    homs_ok = not bad
    wanted = set()
    for a in cat_x.arrows:
        for b in cat_y.arrows:
            if a.rep.length + b.rep.length <= bound:
                wanted.add((a.index, b.index))
    got = set(image.values())
    if len(got) != len(image):
        homs_ok = False
        mismatches.append("projection pair not injective on classes")
    if got != wanted:
        homs_ok = False
        for pair in sorted(wanted - got):
            mismatches.append(f"factor pair {pair} not reached")
        for pair in sorted(got - wanted):
            mismatches.append(f"extra image pair {pair}")
    return (objects_ok, homs_ok, len(cat_p.objects), cat_p.arrow_count, len(wanted),
            tuple(mismatches))


def _ref_sum(X, Y, bound):
    S = sum_complex(X, Y)
    cat_s, cat_x, cat_y = pi1(S, bound), pi1(X, bound), pi1(Y, bound)
    mismatches = []
    want_objects = {("L", x) for x in cat_x.objects} | {("R", y) for y in cat_y.objects}
    objects_ok = set(cat_s.objects) == want_objects
    if not objects_ok:
        mismatches.append("object sets differ")

    def untag(label):
        (tag, x), word = label
        c = (cat_x if tag == "L" else cat_y).class_of_label(x, (e for _, e in word))
        return None if c is None else (tag, c.index)

    image, bad = _ref_class_images(cat_s, untag, "untagging")
    mismatches += bad
    homs_ok = not bad
    wanted = {("L", a.index) for a in cat_x.arrows}
    wanted |= {("R", a.index) for a in cat_y.arrows}
    got = set(image.values())
    if len(got) != len(image) or got != wanted:
        homs_ok = False
        mismatches.append("untagged classes do not pair off with the factors")
    return objects_ok, homs_ok, tuple(mismatches)


# ---------------------------------------------------------------------------
# field-for-field agreement


def _same_map(got, want, where):
    # a dict's order is part of the answer: arrow order
    assert list(got.items()) == list(want.items()), where


def _same_category(got, want, where):
    assert got.objects == want.objects, where
    assert got.bound == want.bound, where
    assert got.possibly_incomplete == want.possibly_incomplete, where
    assert got.arrows == want.arrows, where


def _assert_induced(X, bound, where):
    got = induced_comparisons(X, bound)
    (cat_fl, cat_x, cat_dh, first_map, second_map, first_ok, second_ok,
     full, faithful, missing) = _ref_induced(X, bound)
    _same_map(got.first_arrow_map, first_map, where)
    _same_map(got.second_arrow_map, second_map, where)
    assert (got.first_functorial, got.second_functorial) == (first_ok, second_ok), where
    assert (got.second_full, got.second_faithful) == (full, faithful), where
    assert got.non_fullness == missing, where
    _same_category(got.flexible_part, cat_fl, where)
    _same_category(got.whole, cat_x, where)
    _same_category(got.generated, cat_dh, where)


def _assert_fullness(X, S, bound, where):
    got = check_fullness(X, S, bound)
    assert (got.full, got.faithful, got.witnesses) == _ref_fullness(X, S, bound), where


def _assert_product(X, Y, bound, where):
    got = check_product_preservation(X, Y, bound)
    assert (got.objects_bijective, got.homs_bijective, got.product_objects,
            got.product_arrows, got.pairs_in_bound, got.mismatches) == _ref_product(
        X, Y, bound), where


def _assert_sum(X, Y, bound, where):
    got = check_sum_preservation(X, Y, bound)
    assert (got.objects_bijective, got.homs_bijective, got.mismatches) == _ref_sum(
        X, Y, bound), where


def _vertex_sets(X):
    """Every nonempty set of flexible vertices, in idkey order, for up to
    four of them; else the first half and every single one."""
    vertices = sorted(X.flexible, key=idkey)
    if len(vertices) <= 4:
        return [list(c) for k in range(1, len(vertices) + 1)
                for c in itertools.combinations(vertices, k)]
    return [vertices[: len(vertices) // 2]] + [[v] for v in vertices]


def _assert_every_audit(X, bound, partners, where):
    if X.generators is not None:
        _assert_induced(X, bound, where)
    for S in _vertex_sets(X):
        _assert_fullness(X, S, bound, (where, S))
    for name, Y in partners.items():
        _assert_product(X, Y, bound, (where, "product", name))
        _assert_sum(X, Y, bound, (where, "sum", name))


class TestAgainstTheClassByClassReference:
    def test_the_corpus(self):
        partners = {"interval-c": interval_c(), "interval-j": interval_j()}
        for name, C in build_corpus().items():
            for bound in range(5):
                _assert_every_audit(C, bound, partners, (name, bound))

    def test_the_benchmark_pool_at_its_bounds(self):
        for bound in range(6, 10):
            _assert_induced(symmetrize(circle_n_stop(2)), bound, ("symcircle2", bound))
        for bound in range(8, 13):
            _assert_induced(circle_n_stop(3), bound, ("circle3", bound))
        line3, middelay, line2 = line_c(3), interval_middle_delay(), line_c(2)
        for bound in range(4, 7):
            _assert_product(line3, line3, bound, ("line3xline3", bound))
            _assert_sum(line3, line3, bound, ("line3+line3", bound))
            _assert_fullness(product(line3, line3), [("-1", "-1"), ("0", "1"), ("1", "1")],
                             bound, ("line3xline3", bound))
        for bound in range(5, 8):
            _assert_product(middelay, line2, bound, ("middelayxline2", bound))
            _assert_sum(middelay, line2, bound, ("middelay+line2", bound))
            _assert_fullness(product(middelay, line2), [("0", "0"), ("1", "0"), ("1", "2")],
                             bound, ("middelayxline2", bound))

    @settings(max_examples=40)
    @given(presented_complexes())
    def test_random_presented_complexes(self, X):
        _assert_every_audit(X, 3, {"interval-c": interval_c()}, "random")


def _merged(cat, a, b):
    """``cat`` built from explicit arrows, with arrow ``b`` folded into
    arrow ``a`` of the same hom: a category whose composition no longer
    matches its labels' classes."""
    arrows = [c for c in cat.arrows if c.index != b]
    labels = cat.arrows[a].labels | cat.arrows[b].labels
    arrows = [ArrowClass(i, c.source, c.target, c.rep, labels if c.index == a else c.labels)
              for i, c in enumerate(arrows)]
    return FundamentalCategory(cat.objects, arrows, cat.bound, cat.possibly_incomplete)


def _reversed(cat):
    """``cat`` built from explicit arrows listed last to first."""
    arrows = [ArrowClass(i, c.source, c.target, c.rep, c.labels)
              for i, c in enumerate(reversed(cat.arrows))]
    return FundamentalCategory(cat.objects, arrows, cat.bound, cat.possibly_incomplete)


def _assert_helpers(src, dst, where):
    pi1_module = importlib.import_module("cspace.pi1")
    amap, ok = pi1_module._arrow_map(src, dst)
    want_map, want_ok = _ref_arrow_map(src, dst)
    _same_map(amap, want_map, where)
    assert ok == want_ok, where
    if len(amap) == src.arrow_count:
        assert pi1_module._hom_image_check(src, dst, amap) == _ref_hom_image_check(
            src, dst, amap), where
    return amap, ok


class TestTheHelpersWhereTheMapFails:
    """Pairs of categories that reach every way ``_arrow_map`` and
    ``_hom_image_check`` can fail, against the reference."""

    def test_labels_outside_the_target_cut_the_map_short(self):
        cuts = 0
        for name, C in build_corpus().items():
            if C.generators is None:
                continue
            for bound in range(5):
                for src, dst in ((pi1(reflect_dhat(C), bound), pi1(C, bound)),
                                 (pi1(C, bound + 1), pi1(reflect_dhat(C), bound))):
                    amap, ok = _assert_helpers(src, dst, (name, bound))
                    cuts += len(amap) < src.arrow_count
        assert cuts

    def test_a_class_split_in_the_target_is_not_well_defined(self):
        splits = unfaithful = 0
        for name, C in build_corpus().items():
            if C.generators is None:
                continue
            S = symmetrize(C)
            bare = PresentedComplex(S.graph, S.generators)
            for bound in range(6):
                amap, ok = _assert_helpers(pi1(S, bound), pi1(bare, bound), (name, bound))
                splits += not ok and len(amap) == pi1(S, bound).arrow_count
                amap, _ = _assert_helpers(pi1(bare, bound), pi1(S, bound), (name, bound))
                unfaithful += len(set(amap.values())) < len(amap)
        assert splits and unfaithful

    def test_a_split_class_maps_to_its_least_image(self):
        # listed last to first, the target numbers the class of a later
        # label below the class of the source's representative
        S = symmetrize(interval_c())
        bare = PresentedComplex(S.graph, S.generators)
        for bound in range(2, 6):
            amap, ok = _assert_helpers(pi1(S, bound), _reversed(pi1(bare, bound)), bound)
            assert not ok and len(amap) == pi1(S, bound).arrow_count

    def test_a_split_class_with_functorial_composites_is_not_well_defined(self):
        # at bound 1 the loop and the identity form the only endo-class of
        # the merged source, and it composes with itself consistently
        cat = pi1(circle_n_stop(1), 1)
        loops = {c.rep.length: c.index for c in cat.hom("0", "0")}
        src = _merged(cat, loops[0], loops[1])
        amap, ok = _assert_helpers(src, cat, "merged")
        assert not ok and len(amap) == src.arrow_count

    def test_a_target_whose_composites_disagree_is_not_functorial(self):
        cat = pi1(circle_n_stop(1), 3)
        loops = {c.rep.length: c.index for c in cat.hom("0", "0")}
        dst = _merged(cat, loops[1], loops[2])
        amap, ok = _assert_helpers(cat, dst, "merged")
        assert not ok and len(amap) == cat.arrow_count


class TestTheComparisonsBuildNoClass:
    def test_induced_comparisons_leave_every_view_without_classes(self):
        got = induced_comparisons(symmetrize(circle_n_stop(2)), 9)
        assert got.second_full and not got.non_fullness
        for cat in (got.flexible_part, got.whole, got.generated):
            assert cat._classes == {}

    def test_reports_without_mismatches_construct_no_arrow_class(self, monkeypatch):
        module = importlib.import_module("cspace.pi1")

        def refuse(*args, **kwargs):
            raise AssertionError("an ArrowClass was built")

        monkeypatch.setattr(module, "ArrowClass", refuse)
        line3 = line_c(3)
        assert check_product_preservation(line3, line3, 5)
        assert check_sum_preservation(line3, interval_j(), 5)
        assert check_fullness(product(line3, line3), [("0", "0"), ("1", "1")], 5)
        comp = induced_comparisons(circle_n_stop(3), 9)
        assert comp.first_functorial and comp.second_functorial and comp.second_full
