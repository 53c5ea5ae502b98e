"""Dimension-set and tensor helpers that only the tests use.

The engine computes these inline; tests use them to state expectations
one cell or one set at a time.
"""

import itertools

from dimcalc.model import DimensionSet, Model, Tensor


def union(order, a: DimensionSet, b: DimensionSet) -> DimensionSet:
    """All names in `a` or `b`, listed as in `order` (the model's dimension
    names in declaration order)."""
    return DimensionSet(tuple(n for n in order if n in a or n in b))


def full_set(model: Model) -> DimensionSet:
    """Every dimension the model declares."""
    return model.dim_set(d.name for d in model.dimensions)


def enumerate_dimension_sets(model: Model) -> list[DimensionSet]:
    """All 2^n dimension sets of a model, by cardinality then canonical order."""
    names = [d.name for d in model.dimensions]
    out = []
    for k in range(len(names) + 1):
        for combo in itertools.combinations(names, k):
            out.append(DimensionSet(combo))
    return out


def broadcast_lookup(tensor: Tensor, target_dims, target_labels, model: Model):
    """Value of `tensor` at the projection of a target instance tuple.

    The tensor's dimensions must be a subset of `target_dims` (Rule 2
    guarantees this for checked models); a dimensionless tensor yields its
    single value for every tuple.
    """
    projected = tuple(
        target_labels[target_dims.names.index(name)] for name in tensor.dims)
    return tensor.values[model.tensor_index(tensor.dims, projected)]
