"""The model printer and the subnet exporter that ``refine.net_spec`` replaced,
kept as oracles.

``print_model`` wrote every net as text directly, finding the reference
form of each port sort by a scan of the sort table.  ``net_spec_of`` was the
search's own exporter of a net as a ``NetSpec``: it kept the notes and firing
rules of decomposed members and gave no spec when a sort had no name in the
table and was atomic.
"""

from __future__ import annotations

from bpnet import core
from bpnet.core import (
    INPUT,
    OUTPUT,
    WHOLE,
    AtomicSort,
    CollectionSort,
    FiringRule,
    Model,
    PortId,
    Process,
    ProcessId,
    Sort,
    SortExpr,
    SortNameRef,
)
from bpnet.refine import NetSpec, ProcessSpec, RuleSpec


def _sort_text(model: Model, sort: Sort) -> str:
    """Reference form of a sort: the least declared name, else inline."""
    names = sorted(n for n, s in model.sort_table.items() if s == sort)
    if names:
        return names[0]
    return _sort_structure(model, sort)


def _sort_structure(model: Model, sort: Sort) -> str:
    if isinstance(sort, AtomicSort):
        return sort.name
    if isinstance(sort, CollectionSort):
        return f"{sort.kind} {_sort_text(model, sort.element)}"
    inner = ", ".join(f"{f}: {_sort_text(model, s)}" for f, s in sort.fields)
    return f"record {{ {inner} }}"


def _sort_owner(model: Model, sort: Sort) -> str:
    # a self-named atomic anchors its alias group; otherwise the least name
    if isinstance(sort, AtomicSort) and model.sort_table.get(sort.name) == sort:
        return sort.name
    return min(n for n, s in model.sort_table.items() if s == sort)


def _port_decl_text(model: Model, port_id: str) -> str:
    port = model.ports[port_id]
    if port.sort is None:
        return port.name
    return f"{port.name} : {_sort_text(model, port.sort)}"


def _process_decl_text(model: Model, proc: Process) -> str:
    sections = []
    for keyword, port_ids in ((INPUT, proc.inputs), (OUTPUT, proc.outputs)):
        if port_ids:
            decls = " ".join(
                _port_decl_text(model, p)
                for p in sorted(port_ids, key=lambda p: model.ports[p].name)
            )
            sections.append(f"{keyword} {decls}")
    # black-box notes of decomposed processes are residue; the net is printed
    if proc.behavior_note and proc.id not in model.nets:
        sections.append(f'note "{proc.behavior_note}"')
    body = "; ".join(sections)
    return f"process {proc.name} {{ {body} }}" if body else f"process {proc.name} {{ }}"


def _rule_text(model: Model, proc: Process, rule: FiringRule) -> str:
    def refs(pairs: tuple[tuple[str, str], ...]) -> str:
        rendered = sorted(
            (model.ports[p].name, lab) for p, lab in pairs if p in model.ports
        )
        return ", ".join(n if lab == WHOLE else f"{n}.{lab}" for n, lab in rendered)

    text = (
        f"rule {proc.name} : needs {{ {refs(rule.needs)} }}"
        f" produces {{ {refs(rule.produces)} }}"
    ).replace("{  }", "{ }")
    if rule.compute != "tag":
        text += f" using {rule.compute}"
    return text


def print_model(model: Model) -> str:
    """Canonical text for a model: sorted declarations, stable ordering.

    Isomorphic models print byte-identically; parsing the output yields a
    model isomorphic to the input.
    """
    lines: list[str] = []
    for name in sorted(model.sort_table):
        sort = model.sort_table[name]
        owner = _sort_owner(model, sort)
        if name != owner:
            lines.append(f"sort {name} = {owner}")
        elif sort == AtomicSort(name):
            lines.append(f"sort {name}")
        else:
            lines.append(f"sort {name} = {_sort_structure(model, sort)}")
    if lines:
        lines.append("")

    contained = core.container_index(model)
    top_level = [pid for pid in model.processes if pid not in contained]
    ordered_top = [model.root] + sorted(
        (p for p in top_level if p != model.root),
        key=lambda p: (model.processes[p].name, p),
    )
    for pid in ordered_top:
        if pid not in model.processes:
            continue
        proc = model.processes[pid]
        lines.append(_process_decl_text(model, proc))
        if pid not in model.nets:
            for rule in proc.firing_rules:
                lines.append(_rule_text(model, proc, rule))
    for owner in sorted(model.nets, key=lambda o: core.display_path(model, o)):
        net, binding = model.nets[owner]
        owner_proc = model.processes.get(owner)
        owner_name = owner_proc.name if owner_proc else owner
        lines.append("")
        lines.append(f"net for {'.'.join(core.display_path(model, owner))} {{")
        members = sorted(
            (m for m in net.processes if m in model.processes),
            key=lambda m: (model.processes[m].name, m),
        )
        for member in members:
            proc = model.processes[member]
            lines.append(f"  {_process_decl_text(model, proc)}")
            if member not in model.nets:
                for rule in proc.firing_rules:
                    lines.append(f"  {_rule_text(model, proc, rule)}")

        def port_ref(port_id: str) -> tuple[str, str]:
            owner = model.port_owners[port_id]
            proc = model.processes.get(owner)
            return (proc.name if proc else owner, model.ports[port_id].name)

        for ch in sorted(
            net.channels,
            key=lambda c: port_ref(c.source) + port_ref(c.dest)
            if c.source in model.ports and c.dest in model.ports
            else ((c.source, ""), (c.dest, "")),
        ):
            if ch.source not in model.ports or ch.dest not in model.ports:
                continue
            (sp, spn), (dp, dpn) = port_ref(ch.source), port_ref(ch.dest)
            lines.append(f"  channel {sp}.{spn} -> {dp}.{dpn}")
        to_parent = binding.to_parent()
        for keyword, boundary in (("input", net.env_inputs), ("output", net.env_outputs)):
            entries = []
            for port_id in boundary:
                if port_id not in model.ports or port_id not in to_parent:
                    continue
                parent_port = to_parent[port_id]
                if parent_port not in model.ports:
                    continue
                mname, pname = port_ref(port_id)
                entries.append(
                    f"  {keyword} {mname}.{pname} binds "
                    f"{owner_name}.{model.ports[parent_port].name}"
                )
            lines.extend(sorted(entries))
        lines.append("}")
    return "\n".join(lines).rstrip("\n") + "\n"


def sort_expr_of(sort: Sort, table) -> SortExpr | None:
    names = sorted(n for n, s in table.items() if s == sort)
    if names:
        return SortNameRef(names[0])
    if isinstance(sort, core.AtomicSort):
        return None
    if isinstance(sort, core.CollectionSort):
        element = sort_expr_of(sort.element, table)
        return core.CollectionExpr(sort.kind, element) if element is not None else None
    fields = []
    for fname, fsort in sort.fields:
        fexpr = sort_expr_of(fsort, table)
        if fexpr is None:
            return None
        fields.append((fname, fexpr))
    return core.RecordExpr(tuple(fields))


def net_spec_of(model: Model, owner: ProcessId, table) -> NetSpec | None:
    """Export a decomposed process's subnet as a NetSpec (for replay elsewhere)."""
    net, binding = model.nets[owner]
    members = []
    rules = []
    for member in sorted(
        net.processes, key=lambda m: (model.processes[m].name, m)
    ):
        proc = model.processes[member]
        decls = {"in": [], "out": []}
        for direction, port_ids in (("in", proc.inputs), ("out", proc.outputs)):
            for port_id in port_ids:
                port = model.ports[port_id]
                if port.sort is None:
                    decls[direction].append((port.name, None))
                else:
                    expr = sort_expr_of(port.sort, table)
                    if expr is None:
                        return None
                    decls[direction].append((port.name, expr))
        members.append(
            ProcessSpec(proc.name, tuple(decls["in"]), tuple(decls["out"]), proc.behavior_note)
        )
        for rule in proc.firing_rules:
            rules.append(
                RuleSpec(
                    proc.name,
                    tuple((model.ports[p].name, lab) for p, lab in rule.needs),
                    tuple((model.ports[p].name, lab) for p, lab in rule.produces),
                    rule.compute,
                )
            )

    def ref(port_id: PortId) -> tuple[str, str]:
        return model.processes[model.port_owners[port_id]].name, model.ports[port_id].name

    channels = tuple(
        sorted(ref(ch.source) + ref(ch.dest) for ch in net.channels)
    )
    to_parent = binding.to_parent()
    input_binds = tuple(
        sorted(
            ref(p) + (model.ports[to_parent[p]].name,)
            for p in net.env_inputs
            if p in to_parent
        )
    )
    output_binds = tuple(
        sorted(
            ref(p) + (model.ports[to_parent[p]].name,)
            for p in net.env_outputs
            if p in to_parent
        )
    )
    return NetSpec(tuple(members), channels, input_binds, output_binds, tuple(rules))

