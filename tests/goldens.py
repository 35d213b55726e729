"""Pinned goldens: digests and report fields that must never move.

Every table here was captured before the fast path it guards landed and
is asserted unconditionally by tier-1 (``tests/test_goldens.py``,
``tests/test_pipeline_identity.py``).  A value changes only as a
deliberate re-pin, once, with the cause stated in the PR.  The corpora
the digests are taken over live in ``tests/corpus.py``
(``build_corpus``, ``storage_blocks``).

Whole reports are pinned field by field in ``tests/pins/``: the E4
report of every mode at :data:`GOLDEN_REPORT_CHUNKS`
(``golden_reports.json``) and the E4 fields that must not move when
the engine is optimized, at :data:`GOLDEN_E4_CHUNKS`
(``e4_fields.json``; the ``*_utilization`` values are the exact
integral of the level curve, correctly rounded).
"""

#: sha256 digests of every (producer, block) encoded stream, captured at
#: the pre-fast-path commit.  The fast path must reproduce these exactly.
GOLDEN_STREAM_DIGESTS: dict[str, dict[str, str]] = {
    "zeros": {
        "quicklz": "5159a909342ba1311c7106b0efccf46ce7fef01724cc0d7c956b98848ddbf8d1",
        "lzss": "e504bd59753b3fbdcdc1e9525cef129bebd221610cf7da5f993c22088de24a79",
        "gpu8": "cd7b96f56b626dd0fc82f159847bd6518ac4b3b0f05fe20bbd3139cda5763b4d",
    },
    "period3": {
        "quicklz": "f2a1ebf69a6f6300fc7f82ac4185e79bdc690bb09a1346f7c986d9e6c46290c1",
        "lzss": "a1dd0959e343646fa8ef322f19609a4cd5e1fee6e298cc77b93eb22df16cdf87",
        "gpu8": "9ac5fc6bc68d82a09218131b04c87c600b803318066954b4c8c59bb1c1c6279e",
    },
    "text": {
        "quicklz": "df772eddc83433fa22d04721744eb0be35ab9f1a3d00c056fd08fadaf318cd4f",
        "lzss": "3a53755be6300f000ceb408187c5ec9df58198111125196065c53c2db3fb48cf",
        "gpu8": "ff5b7050310823a239cd7b1fd158f69ed70cd23d2a202c341b9a857e13e10847",
    },
    "random": {
        "quicklz": "76230b3ce5b6bd87742175fc7fc54a7ca545b8e9d59ed35b6be916ced8727466",
        "lzss": "76230b3ce5b6bd87742175fc7fc54a7ca545b8e9d59ed35b6be916ced8727466",
        "gpu8": "76230b3ce5b6bd87742175fc7fc54a7ca545b8e9d59ed35b6be916ced8727466",
    },
    "ratio2_0": {
        "quicklz": "b29f034a099dcc59045633245eca26f1815e622960f7f8b7d9171c8eb9ae404a",
        "lzss": "74637f39e25e7f5e385a92027ecaee045fc4e66fa10f6225dc069ea6562fa02a",
        "gpu8": "89e6e7aa23a4e34b8d0a6dc19421dcfdeadc3bb6c5b337f400dcb7410b3907fb",
    },
    "ratio2_1": {
        "quicklz": "85c16cf73804dc7056d503c7308826fe95bee8234c1d9d671da07ab5635fce87",
        "lzss": "60d3e3afe59c6677edcaf41d22624240cc51c1090f4976803f1c14774f7b5f49",
        "gpu8": "e14fc72e4e42281477b4a36344b13412c7fd2eeda88f274adcdff63e36c1694d",
    },
    "ratio2_2": {
        "quicklz": "241ce41fce375af9172a8878f28542c431e1fcad73f2ee088bce9580481eda6a",
        "lzss": "6752980b6efd59c2b406c26f141d067bbb27f96b78c791dc972387328472dafd",
        "gpu8": "77ff94fb947edf565064fca2aa5fb71d8798b3eb5b8a41f0233cfac5d3070280",
    },
    "ratio2_3": {
        "quicklz": "91824166c4a9fddef08f17b32d876ba25cc5c4ab73863ed561a2dc95bd4a0e0b",
        "lzss": "9f9b2db9cc81c80e69b7570df6daed59dab1711f658f175b7bf280b137e7362d",
        "gpu8": "9f9b2db9cc81c80e69b7570df6daed59dab1711f658f175b7bf280b137e7362d",
    },
    "seam512": {
        "quicklz": "61eadc51696f37454ea6b76d07391c2ce229442e70401956739ed7510de0c56f",
        "lzss": "19def9d76476c324003368c02937722a58c12277c251f964d1cc3dc811e1f431",
        "gpu8": "4cb887f2ecc2f172e4414497bdaf390b445da9e51038f6c3362977f8705b63e5",
    },
    "tail2": {
        "quicklz": "ba3b9ef01dfe02c6f803ca7227cf069c4370e810c6b69e461d807fd9d58121fc",
        "lzss": "ba3b9ef01dfe02c6f803ca7227cf069c4370e810c6b69e461d807fd9d58121fc",
        "gpu8": "ba3b9ef01dfe02c6f803ca7227cf069c4370e810c6b69e461d807fd9d58121fc",
    },
    "tail1": {
        "quicklz": "12c6979e95ed1aed3c86f6cf9fb5c017d8a4fd69438b1d6c4679ce26b5d3e918",
        "lzss": "12c6979e95ed1aed3c86f6cf9fb5c017d8a4fd69438b1d6c4679ce26b5d3e918",
        "gpu8": "12c6979e95ed1aed3c86f6cf9fb5c017d8a4fd69438b1d6c4679ce26b5d3e918",
    },
}

#: Exact A7 segment-sweep fields at the pre-fast-path commit
#: (segments -> (ratio, ratio_loss_vs_serial)).  The kernel cost model is
#: untouched by the fast path, so the critical-path column is not pinned.
GOLDEN_A7_FIELDS: dict[int, tuple[float, float]] = {
    1: (2.128713728886964, 0.0),
    2: (2.128713728886964, 0.0),
    4: (2.125399982703451, 0.0015566894404565046),
    8: (2.123746975458002, 0.00233321811268572),
    16: (2.1220965374320007, 0.0031085398497538996),
}

#: Exact A11 fields, ``a11_kernel_variants(batch_sizes=(64, 256),
#: n_entries=8192)``, taken while the tiled kernel still carried its own
#: copy of the lookup: batch -> (simple_seconds, tiled_seconds,
#: simple_global_bytes, tiled_global_bytes).  Pins both lookup kernels'
#: cost models.
GOLDEN_A11_FIELDS: dict[int, tuple[float, float, float, float]] = {
    64: (0.00014710947747747748, 0.00013804569369369368, 50688.0, 45120.0),
    256: (0.00014800547747747747, 0.0001389416936936937, 199656.0,
          126720.0),
}

#: Chunk count the pinned E4 fields are taken at.
GOLDEN_E4_CHUNKS = 8192

#: Chunk count of the pinned per-mode reports.
GOLDEN_REPORT_CHUNKS = 2048
