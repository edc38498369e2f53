"""Oracle for `arrtop info`, which reads every invariant off the
intersection poset: the same summary from the enumerated faces and the
built complex.  Regions and bounded chambers are counted face by face
(`region_counts`, an Euler sum per chamber), and the cells are those of the
Salvetti complex that `build_salvetti` builds and gates."""

from arrtop import geometry
from arrtop.realfaces import enumerate_faces, region_counts
from arrtop.salvetti import build_salvetti


def info_by_faces(arr):
    poset = geometry.intersection_poset(arr)
    fc = enumerate_faces(arr)
    sc = build_salvetti(fc)
    regions, bounded = region_counts(fc)
    return {
        "dim": arr.dim,
        "num_hyperplanes": arr.d,
        "central": arr.is_central,
        "essential": arr.is_essential,
        "flat_counts": poset.flat_counts(),
        "char_poly": geometry.characteristic_polynomial(poset),
        "betti": geometry.betti_numbers(poset),
        "regions": regions,
        "bounded": bounded,
        "cells": sc.cell_counts,
    }
