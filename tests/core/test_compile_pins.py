"""``compile_model`` answers, pinned: every zoo model on x86 / arm / cuda.

One fresh :class:`TuningSession` per target compiles the nine models in
figure order, as the performance ledger's fresh compile does.  hwsim is
deterministic, so each predicted latency must come out bit for bit (its
float ``repr``), and the sessions must run the same searches and trials.
"""

from repro.core import compile_model
from repro.core.pipeline import TARGETS
from repro.models import EVALUATED_MODELS, get_model
from repro.rewriter.session import TuningSession

LATENCY_MS = {
    ("resnet-18", "x86"): "0.6165282876190475",
    ("resnet-50", "x86"): "1.3170637390476192",
    ("resnet-50_v1b", "x86"): "1.3809403104761906",
    ("inception-bn", "x86"): "0.9715315028571428",
    ("inception-v3", "x86"): "2.95369676249329",
    ("resnet-101", "x86"): "2.54974831047619",
    ("resnet-152", "x86"): "3.7824328819047617",
    ("mobilenet-v1", "x86"): "0.27324420571428587",
    ("mobilenet-v2", "x86"): "0.3035010095238097",
    ("resnet-18", "arm"): "2.1059560535774224",
    ("resnet-50", "arm"): "4.457699426025939",
    ("resnet-50_v1b", "arm"): "4.707021165156375",
    ("inception-bn", "arm"): "2.6411106627786873",
    ("inception-v3", "arm"): "9.937403220974172",
    ("resnet-101", "arm"): "8.70453594776508",
    ("resnet-152", "arm"): "12.951372469504227",
    ("mobilenet-v1", "arm"): "0.8056669470022882",
    ("mobilenet-v2", "arm"): "0.6197551902364609",
    ("resnet-18", "cuda"): "0.22483830934827265",
    ("resnet-50", "cuda"): "0.4730281905359475",
    ("resnet-50_v1b", "cuda"): "0.49521536794771215",
    ("inception-bn", "cuda"): "0.5249464182558357",
    ("inception-v3", "cuda"): "0.971922824873949",
    ("resnet-101", "cuda"): "0.8760626895835664",
    ("resnet-152", "cuda"): "1.2793172534976647",
    ("mobilenet-v1", "cuda"): "0.13571837738892759",
    ("mobilenet-v2", "cuda"): "0.19292864056027165",
}


def test_zoo_latencies_searches_and_trials_pinned():
    latencies, searches, trials = {}, 0, 0
    for target in TARGETS:
        session = TuningSession()
        for name in EVALUATED_MODELS:
            compiled = compile_model(get_model(name, fresh=True), target=target, session=session)
            latencies[(name, target)] = repr(compiled.latency_ms)
        searches += session.searches_run
        trials += session.trials_run
    assert latencies == LATENCY_MS
    assert (searches, trials) == (429, 8008)
